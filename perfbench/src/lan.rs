//! `lan_demux`: the paper's own setting — user-level protocols over the
//! packet filter on Ethernet, no routers.
//!
//! The repository's BSP runs over the 3 Mb Experimental Ethernet and its
//! user-level VMTP over the 10 Mb Ethernet, and a simulated host has one
//! interface, so the workload has two segments and two server hosts:
//!
//! * **3 Mb segment** — the server `srv` runs BSP receivers, a
//!   wanted-stream consumer with batched reads, a junk sink behind a
//!   token-bucket quota and idle listener ports, over the default
//!   (priority-ordered) demux engine, with the admission gate and the
//!   interrupt→polling armor on. Client hosts each run a BSP bulk
//!   sender. A generator host sends an open-loop wanted stream and an
//!   open-loop junk stream at a fixed rate above the junk quota. A
//!   promiscuous `CaptureApp` runs on a monitor host.
//! * **10 Mb segment** — the server `vsrv` runs a `VmtpUserServer`;
//!   client hosts each run a closed-loop `VmtpUserClient` (each waits
//!   for its reply before the next request).
//!
//! Every library app runs inside a timing wrapper handed to
//! `World::spawn`; the BSP receivers' wrapper also records each data
//! packet for the byte-exact payload check.

use crate::stats::{batch_ns, quantile_sorted, Digest, Replay};
use crate::trace::{self, Kind};
use crate::{drive, timed, Outcome, Scale};
use pf_filter::samples;
use pf_kernel::app::App;
use pf_kernel::device::PfDevice;
use pf_kernel::types::{
    Fd, HostId, PipeId, PortConfig, ProcId, ReadError, ReadMode, RecvPacket, SockId,
};
use pf_kernel::world::{OverloadConfig, ProcCtx, World};
use pf_kernel::{AdmissionConfig, AdmissionQuota};
use pf_monitor::capture::CaptureApp;
use pf_net::medium::Medium;
use pf_net::segment::{FaultModel, SegmentId};
use pf_proto::bsp::BspConfig;
use pf_proto::bsp_app::{BspReceiverApp, BspSenderApp};
use pf_proto::pup::{types, Pup, PupAddr, PUP_ETHERTYPE};
use pf_proto::vmtp_user::{VmtpUserClient, VmtpUserServer, Workload as VmtpWorkload};
use pf_sim::cost::CostModel;
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// The 3 Mb server's link address (also the VMTP server's on 10 Mb).
const SRV_ETH: u64 = 0x0B;
/// The stream generator's link address.
const GEN_ETH: u64 = 0x0C;
/// The monitor's link address.
const MON_ETH: u64 = 0x0E;
/// First BSP client link address.
const BSP_CLIENT_ETH: u64 = 0x20;
/// First VMTP client link address.
const VMTP_CLIENT_ETH: u64 = 0x30;
/// VMTP server entity.
const VMTP_SERVER_ENTITY: u32 = 0x20;
/// Destination socket of the protected wanted stream.
const WANTED_SOCK: u16 = 35;
/// Destination socket of the best-effort junk stream.
const JUNK_SOCK: u16 = 99;
/// First idle listener socket (no traffic is ever addressed to one).
const IDLE_SOCK: u16 = 0x600;
/// First BSP receiver socket.
const BSP_SOCK: u32 = 0x400;
/// Per-packet application cost of consuming one wanted packet.
const CONSUME: SimDuration = SimDuration::from_micros(200);
/// The junk port's token bucket: a trickle, below the junk rate.
const JUNK_QUOTA: AdmissionQuota = AdmissionQuota {
    rate_pps: 50,
    burst: 32,
};
/// Receive armor on the server (as `pf_bench::overload::BENCH_ARMOR`).
const ARMOR: OverloadConfig = OverloadConfig {
    hi_watermark: 16,
    lo_watermark: 4,
    poll_batch: 16,
    poll_interval: SimDuration::from_millis(8),
};
/// Largest stream-frame data length, bytes.
const STREAM_MAX_DATA: usize = 256;
/// When the generator's streams start: after the BSP transfers, so the
/// wanted stream's latency tail is steady-state queueing behind junk
/// and not the one-off bulk burst.
const STREAM_START: SimTime = SimTime(1_500_000_000);

/// The workload's size: populations, rates and volumes.
#[derive(Debug, Clone, Copy)]
struct Size {
    bsp_clients: usize,
    bsp_bytes: usize,
    vmtp_clients: usize,
    vmtp_ops: u64,
    vmtp_response: u32,
    idle_ports: usize,
    wanted_pps: u64,
    junk_pps: u64,
    stream_for: SimDuration,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            bsp_clients: 3,
            bsp_bytes: 16 * 1024,
            vmtp_clients: 3,
            vmtp_ops: 400,
            vmtp_response: 512,
            idle_ports: 24,
            wanted_pps: 100,
            junk_pps: 150,
            stream_for: SimDuration::from_secs(40),
        },
        Scale::Small => Size {
            bsp_clients: 2,
            bsp_bytes: 4 * 1024,
            vmtp_clients: 2,
            vmtp_ops: 20,
            vmtp_response: 512,
            idle_ports: 8,
            wanted_pps: 100,
            junk_pps: 250,
            stream_for: SimDuration::from_millis(400),
        },
    }
}

/// A timing wrapper: every callback into the wrapped library app is one
/// span of `kind`, nested in a `bench_app` span that also covers the
/// benchmark's own bookkeeping.
pub struct Timed<A> {
    /// The wrapped app.
    pub inner: A,
    kind: Kind,
    /// Data packets seen, by BSP packet id (BSP receivers only).
    pub bsp_data: BTreeMap<u32, Vec<u8>>,
    /// Data packets whose bytes differed from an earlier copy.
    pub bsp_conflicts: u64,
    /// Simulated times at which the wrapped VMTP client's completed
    /// count rose (VMTP clients only).
    pub completions: Vec<u64>,
}

impl<A: App> Timed<A> {
    fn new(inner: A, kind: Kind) -> Self {
        Timed {
            inner,
            kind,
            bsp_data: BTreeMap::new(),
            bsp_conflicts: 0,
            completions: Vec::new(),
        }
    }

    fn call(&mut self, k: &mut ProcCtx<'_>, f: impl FnOnce(&mut A, &mut ProcCtx<'_>)) {
        trace::enter(Kind::BenchApp, k.proc_id().0 as u64);
        self.call_inner(k, f);
        trace::exit();
    }

    /// The library call itself, then the completion bookkeeping.
    fn call_inner(&mut self, k: &mut ProcCtx<'_>, f: impl FnOnce(&mut A, &mut ProcCtx<'_>)) {
        let inner = &mut self.inner;
        trace::span(self.kind, k.proc_id().0 as u64, || f(inner, k));
        if let Some(done) = completed_count(&self.inner) {
            while (self.completions.len() as u64) < done {
                self.completions.push(k.now().0);
            }
        }
    }

    /// Records the BSP data packets in `packets` for the payload check.
    fn record_bsp(&mut self, packets: &[RecvPacket]) {
        let medium = Medium::experimental_3mb();
        for p in packets {
            let Ok(pup) = Pup::decode_frame(&medium, &p.bytes) else {
                continue;
            };
            if pup.ptype == types::BSP_DATA || pup.ptype == types::BSP_ADATA {
                let prev = self
                    .bsp_data
                    .entry(pup.id)
                    .or_insert_with(|| pup.data.clone());
                if *prev != pup.data {
                    self.bsp_conflicts += 1;
                }
            }
        }
    }
}

/// The completed-transaction count of a VMTP client, `None` for other apps.
fn completed_count<A: App>(app: &A) -> Option<u64> {
    (app as &dyn std::any::Any)
        .downcast_ref::<VmtpUserClient>()
        .map(|c| c.completed)
}

impl<A: App> App for Timed<A> {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        self.call(k, |a, k| a.start(k));
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        trace::enter(Kind::BenchApp, k.proc_id().0 as u64);
        if self.kind == Kind::Bsp {
            self.record_bsp(&packets);
        }
        self.call_inner(k, |a, k| a.on_packets(fd, packets, k));
        trace::exit();
    }

    fn on_read_error(&mut self, fd: Fd, err: ReadError, k: &mut ProcCtx<'_>) {
        self.call(k, |a, k| a.on_read_error(fd, err, k));
    }

    fn on_signal(&mut self, fd: Fd, k: &mut ProcCtx<'_>) {
        self.call(k, |a, k| a.on_signal(fd, k));
    }

    fn on_timer(&mut self, token: u64, k: &mut ProcCtx<'_>) {
        self.call(k, |a, k| a.on_timer(token, k));
    }

    fn on_backpressure(&mut self, fd: Fd, depth: usize, k: &mut ProcCtx<'_>) {
        self.call(k, |a, k| a.on_backpressure(fd, depth, k));
    }

    fn on_pipe_data(&mut self, pipe: PipeId, data: Vec<u8>, k: &mut ProcCtx<'_>) {
        self.call(k, |a, k| a.on_pipe_data(pipe, data, k));
    }

    fn on_socket(
        &mut self,
        sock: SockId,
        op: u32,
        data: Vec<u8>,
        meta: [u64; 4],
        k: &mut ProcCtx<'_>,
    ) {
        self.call(k, |a, k| a.on_socket(sock, op, data, meta, k));
    }
}

/// `ProcCtx::pf_read` inside a `port.read` span.
fn read(k: &mut ProcCtx<'_>, fd: Fd) {
    trace::span(Kind::PfRead, fd.0 as u64, || k.pf_read(fd));
}

/// The benchmark's own server apps: the wanted-stream consumer, the
/// junk sink, and the idle listeners.
pub struct BenchPort {
    sock: u16,
    priority: u8,
    quota: Option<AdmissionQuota>,
    /// Whether the port is read (idle listeners never are).
    reads: bool,
    /// Per-packet consume cost.
    consume: SimDuration,
    fd: Option<Fd>,
    /// `(stream sequence number, delivery time ns)` per packet read.
    pub got: Vec<(u32, u64)>,
    /// Completed reads.
    pub read_calls: u64,
}

impl BenchPort {
    fn new(sock: u16, priority: u8) -> Self {
        BenchPort {
            sock,
            priority,
            quota: None,
            reads: false,
            consume: SimDuration::ZERO,
            fd: None,
            got: Vec::new(),
            read_calls: 0,
        }
    }
}

impl App for BenchPort {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        trace::enter(Kind::BenchApp, k.proc_id().0 as u64);
        let fd = k.pf_open();
        let filter = samples::pup_socket_filter(self.priority, 0, self.sock);
        assert!(k.pf_set_filter(fd, filter), "socket filters validate");
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: 64,
                ..Default::default()
            },
        );
        if self.quota.is_some() {
            k.pf_set_quota(fd, self.quota);
        }
        self.fd = Some(fd);
        if self.reads {
            read(k, fd);
        }
        trace::exit();
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        trace::enter(Kind::BenchApp, k.proc_id().0 as u64);
        let now = k.now().0;
        self.read_calls += 1;
        for p in &packets {
            let seq = p
                .bytes
                .get(24..28)
                .map_or(u32::MAX, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            self.got.push((seq, now));
        }
        if self.consume > SimDuration::ZERO {
            k.compute("user:consume", self.consume.times(packets.len() as u64));
        }
        read(k, fd);
        trace::exit();
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        trace::enter(Kind::BenchApp, k.proc_id().0 as u64);
        read(k, fd);
        trace::exit();
    }
}

/// One stream frame from the generator to the server's `sock`: `len`
/// data bytes, its sequence number in the first four.
fn stream_frame(sock: u16, seq: u32, len: usize) -> Vec<u8> {
    let mut data = vec![0x5A; len.max(4)];
    data[..4].copy_from_slice(&seq.to_le_bytes());
    let mut f = samples::pup_packet_3mb_with_data(PUP_ETHERTYPE, 1, 0, sock, 1, &data);
    f[0] = SRV_ETH as u8;
    f[1] = GEN_ETH as u8;
    f
}

/// A ready-to-run `lan_demux` world with the handles the referee needs.
struct Built {
    w: World,
    size: Size,
    seg3: SegmentId,
    seg10: SegmentId,
    srv: HostId,
    mon: HostId,
    hosts: Vec<HostId>,
    wanted: ProcId,
    junk: ProcId,
    monitor: ProcId,
    bsp: Vec<(HostId, ProcId, HostId, ProcId, Vec<u8>)>,
    vmtp: Vec<(HostId, ProcId)>,
    /// `(due time ns)` of every wanted frame, by sequence number.
    wanted_due: Vec<u64>,
    junk_sent: u64,
    /// Times scheduled before the first step, in scheduling order.
    setup_times: Vec<u64>,
}

fn build(seed: u64, scale: Scale) -> Built {
    let size = size(scale);
    let mut rng = SplitMix64::new(seed);
    let mut w = World::new(seed);
    let costs = CostModel::microvax_ii();
    let seg3 = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let seg10 = w.add_segment(Medium::standard_10mb(), FaultModel::default());
    let srv = w.add_host("srv", seg3, SRV_ETH, costs.clone());
    let gen = w.add_host("gen", seg3, GEN_ETH, costs.clone());
    let mon = w.add_host("mon", seg3, MON_ETH, costs.clone());
    let vsrv = w.add_host("vsrv", seg10, SRV_ETH, costs.clone());
    let mut hosts = vec![srv, gen, mon, vsrv];
    w.set_overload_armor(srv, Some(ARMOR));
    w.set_admission_control(srv, Some(AdmissionConfig::default()));
    w.set_nic_capacity(mon, 1 << 16);
    let mut setup_times = Vec::new();

    // The monitor starts first so it sees every frame on the wire.
    let monitor = w.spawn(
        mon,
        Box::new(Timed::new(
            CaptureApp::promiscuous(usize::MAX).with_queue_len(1 << 16),
            Kind::Monitor,
        )),
    );
    let mut wanted_port = BenchPort::new(WANTED_SOCK, 200);
    wanted_port.reads = true;
    wanted_port.consume = CONSUME;
    let wanted = w.spawn(srv, Box::new(wanted_port));
    let mut junk_port = BenchPort::new(JUNK_SOCK, 10);
    junk_port.reads = true;
    junk_port.quota = Some(JUNK_QUOTA);
    let junk = w.spawn(srv, Box::new(junk_port));
    for i in 0..size.idle_ports {
        // The best-effort priority BSP and the junk sink also use: the
        // device's adaptive reordering keeps busy ports ahead of them.
        w.spawn(srv, Box::new(BenchPort::new(IDLE_SOCK + i as u16, 10)));
    }

    let cfg = BspConfig::default();
    let mut bsp = Vec::new();
    for i in 0..size.bsp_clients {
        let eth = BSP_CLIENT_ETH + i as u64;
        let client = w.add_host(format!("bsp{i}"), seg3, eth, costs.clone());
        hosts.push(client);
        let local = PupAddr::new(1, SRV_ETH as u8, BSP_SOCK + i as u32);
        let remote = PupAddr::new(1, eth as u8, 0x300 + i as u32);
        let payload: Vec<u8> = (0..size.bsp_bytes).map(|_| rng.next_u64() as u8).collect();
        let rx = w.spawn(
            srv,
            Box::new(Timed::new(
                BspReceiverApp::new(local, cfg.clone()),
                Kind::Bsp,
            )),
        );
        let tx = w.spawn(
            client,
            Box::new(Timed::new(
                BspSenderApp::new(remote, local, payload.clone(), cfg.clone()),
                Kind::Bsp,
            )),
        );
        bsp.push((srv, rx, client, tx, payload));
    }
    w.spawn(
        vsrv,
        Box::new(Timed::new(
            VmtpUserServer::new(VMTP_SERVER_ENTITY),
            Kind::Vmtp,
        )),
    );
    let mut vmtp = Vec::new();
    for i in 0..size.vmtp_clients {
        let client = w.add_host(
            format!("vmtp{i}"),
            seg10,
            VMTP_CLIENT_ETH + i as u64,
            costs.clone(),
        );
        hosts.push(client);
        let app = VmtpUserClient::new(
            0x10 + i as u32,
            VMTP_SERVER_ENTITY,
            SRV_ETH,
            VmtpWorkload {
                ops: size.vmtp_ops,
                response_bytes: size.vmtp_response * 3 / 4
                    + rng.below(u64::from(size.vmtp_response) / 2) as u32,
            },
        );
        vmtp.push((
            client,
            w.spawn(client, Box::new(Timed::new(app, Kind::Vmtp))),
        ));
    }
    let procs = 3 + size.idle_ports + 2 * size.bsp_clients + 1 + size.vmtp_clients;
    setup_times.extend(std::iter::repeat_n(0, procs));

    // Open-loop streams from the generator, Poisson arrivals sent on
    // schedule whatever the server does.
    let end = STREAM_START.0 + size.stream_for.as_nanos();
    let mut wanted_due = Vec::new();
    let mut junk_sent = 0u64;
    let mut streams: Vec<(u64, u16, u32, usize)> = Vec::new();
    let poisson = |pps: u64, rng: &mut SplitMix64| -> Vec<u64> {
        let mut times = Vec::new();
        let mut t = STREAM_START.0 as f64;
        loop {
            t += -(1.0 - rng.next_f64()).ln() / pps as f64 * 1e9;
            if t >= end as f64 {
                return times;
            }
            times.push(t as u64);
        }
    };
    // Data lengths are uniform over 4..=STREAM_MAX_DATA bytes.
    let len = |rng: &mut SplitMix64| 4 + rng.below(STREAM_MAX_DATA as u64 - 3) as usize;
    for t in poisson(size.wanted_pps, &mut rng) {
        let l = len(&mut rng);
        streams.push((t, WANTED_SOCK, wanted_due.len() as u32, l));
        wanted_due.push(t);
    }
    for t in poisson(size.junk_pps, &mut rng) {
        let l = len(&mut rng);
        streams.push((t, JUNK_SOCK, junk_sent as u32, l));
        junk_sent += 1;
    }
    streams.sort_unstable();
    for (i, &(at, sock, seq, len)) in streams.iter().enumerate() {
        let f = trace::span(Kind::FrameBuild, i as u64, || stream_frame(sock, seq, len));
        trace::span(Kind::Inject, i as u64, || {
            w.send_frame_at(gen, f, SimTime(at))
        });
        setup_times.push(at);
    }
    Built {
        w,
        size,
        seg3,
        seg10,
        srv,
        mon,
        hosts,
        wanted,
        junk,
        monitor,
        bsp,
        vmtp,
        wanted_due,
        junk_sent,
        setup_times,
    }
}

/// Set-up only, for the set-up-time median.
pub fn setup_only(seed: u64) -> f64 {
    timed(|| build(seed, Scale::Full)).1
}

/// One `lan_demux` iteration.
pub fn lan_demux(seed: u64, scale: Scale, tamper: bool) -> Outcome {
    let started = Instant::now();
    let mut b = build(seed, scale);
    let setup_s = started.elapsed().as_secs_f64();

    let mut popped = Vec::new();
    let run = Instant::now();
    drive(&mut b.w, None, &mut popped);
    let run_s = run.elapsed().as_secs_f64();
    let w = &b.w;

    let mut out = Outcome {
        setup_s,
        run_s,
        ..Outcome::default()
    };
    let mut g = Digest::default();
    let mut latencies: Vec<u64> = Vec::new();

    // Every frame that reached a host ends in exactly one named
    // disposition: a NIC drop, an admission shed, no matching filter, a
    // full port queue, or a port delivery.
    let mut received = 0u64;
    let mut delivered = 0u64;
    for &h in &b.hosts {
        let c = w.counters(h);
        let named = c.drops_interface
            + c.drops_admission
            + c.drops_mimicry_shed
            + c.drops_no_match
            + c.drops_queue_full
            + c.packets_delivered;
        out.check(named == c.packets_received, || {
            format!(
                "host {}: {} frames received, {named} with a named disposition",
                w.host_name(h),
                c.packets_received
            )
        });
        out.failed += c.packets_received.abs_diff(named);
        received += c.packets_received;
        if h != b.mon {
            delivered += c.packets_delivered;
        }
        for v in [
            c.packets_received,
            c.packets_delivered,
            c.drops_admission,
            c.drops_no_match,
            c.drops_queue_full,
        ] {
            g.word(v);
        }
    }
    out.attempted += received;

    // The wanted stream is protected and below capacity: every frame
    // arrives exactly once.
    let wanted = w
        .app_ref::<BenchPort>(b.srv, b.wanted)
        .expect("wanted consumer");
    let mut got = wanted.got.clone();
    if tamper {
        got.pop();
    }
    let mut seen = vec![0u32; b.wanted_due.len()];
    for &(seq, t) in &got {
        match seen.get_mut(seq as usize) {
            Some(n) => {
                *n += 1;
                latencies.push(t - b.wanted_due[seq as usize]);
                g.word(u64::from(seq));
                g.word(t);
            }
            None => out.failed += 1,
        }
    }
    let missing = seen.iter().filter(|&&n| n != 1).count() as u64;
    out.attempted += b.wanted_due.len() as u64;
    out.failed += missing;
    out.check(missing == 0, || {
        format!(
            "{missing} of {} wanted frames not delivered exactly once",
            b.wanted_due.len()
        )
    });
    let junk = w.app_ref::<BenchPort>(b.srv, b.junk).expect("junk sink");
    let srv = w.counters(b.srv);
    out.check(
        junk.got.len() as u64 + srv.drops_admission <= b.junk_sent,
        || {
            format!(
                "junk sink read {} frames of {} sent",
                junk.got.len(),
                b.junk_sent
            )
        },
    );

    // BSP: every transfer completes and the data packets, in id order,
    // are the sender's payload byte for byte.
    let mut retransmits = 0;
    for (i, (rh, rp, th, tp, payload)) in b.bsp.iter().enumerate() {
        let rx = w
            .app_ref::<Timed<BspReceiverApp>>(*rh, *rp)
            .expect("bsp receiver");
        let tx = w
            .app_ref::<Timed<BspSenderApp>>(*th, *tp)
            .expect("bsp sender");
        let stream: Vec<u8> = rx.bsp_data.values().flatten().copied().collect();
        let contiguous = rx.bsp_data.keys().copied().eq(1..=rx.bsp_data.len() as u32);
        let exact = contiguous && stream == *payload && rx.bsp_conflicts == 0;
        let done =
            rx.inner.is_done() && tx.inner.is_done() && rx.inner.bytes == payload.len() as u64;
        out.attempted += 1;
        if !(exact && done) {
            out.failed += 1;
        }
        out.check(exact && done, || {
            format!(
                "BSP transfer {i}: done {done}, {} of {} bytes, byte-exact {exact}",
                rx.inner.bytes,
                payload.len()
            )
        });
        retransmits += tx.inner.stats().retransmits;
        if let (Some(first), Some(closed)) = (rx.inner.first_byte_at, rx.inner.closed_at) {
            g.word(first.0);
            g.word(closed.0);
        }
    }

    // VMTP: every transaction of every closed-loop client completes; a
    // transaction's latency is the gap between completions (the client
    // issues the next request as the reply arrives).
    let mut retries = 0;
    let mut txn_ns: Vec<u64> = Vec::new();
    for (i, (h, p)) in b.vmtp.iter().enumerate() {
        let c = w
            .app_ref::<Timed<VmtpUserClient>>(*h, *p)
            .expect("vmtp client");
        let ok = c.inner.is_done()
            && c.inner.completed == b.size.vmtp_ops
            && c.inner.failed_at.is_none();
        out.attempted += b.size.vmtp_ops;
        out.failed += b.size.vmtp_ops - c.inner.completed.min(b.size.vmtp_ops);
        out.check(ok, || {
            format!(
                "VMTP client {i}: {} of {} transactions",
                c.inner.completed, b.size.vmtp_ops
            )
        });
        let mut prev = c.inner.started_at.map_or(0, |t| t.0);
        for &t in &c.completions {
            txn_ns.push(t - prev);
            g.word(t);
            prev = t;
        }
        retries += c.inner.machine_retries();
    }

    let cap = w
        .app_ref::<Timed<CaptureApp>>(b.mon, b.monitor)
        .expect("monitor");
    g.word(cap.inner.captured() as u64);
    g.word(w.now().0);
    latencies.sort_unstable();
    out.sim_latency_p50_us = quantile_sorted(&latencies, 0.50) / 1e3;
    out.sim_latency_p99_us = quantile_sorted(&latencies, 0.99) / 1e3;
    out.sim_goodput_pps = delivered as f64 / (w.now().0 as f64 / 1e9).max(1e-9);
    out.completed = received;
    out.digest = g.value();

    let l = &mut out.layers;
    l.insert(
        "segment.transmits",
        (w.network().transmitted_on(b.seg3) + w.network().transmitted_on(b.seg10)) as f64,
    );
    let gated = srv.packets_received - srv.drops_interface;
    l.insert(
        "admit.shed_frac",
        srv.drops_admission as f64 / gated.max(1) as f64,
    );
    l.insert("demux.filters_per_pkt", srv.filters_per_packet());
    let demuxed = gated - srv.drops_admission - srv.drops_mimicry_shed;
    l.insert(
        "demux.no_match_frac",
        srv.drops_no_match as f64 / demuxed.max(1) as f64,
    );
    let reads = wanted.read_calls + junk.read_calls;
    let read_pkts = (wanted.got.len() + junk.got.len()) as f64;
    l.insert("port.pkts_per_read", read_pkts / reads.max(1) as f64);
    l.insert("port.drops_queue_full", srv.drops_queue_full as f64);
    l.insert("bsp.retransmits", retransmits as f64);
    l.insert("vmtp.retries", retries as f64);
    let txn_mean = txn_ns.iter().sum::<u64>() as f64 / txn_ns.len().max(1) as f64;
    l.insert("vmtp.txn_us", txn_mean / 1e3);
    l.insert("monitor.captured", cap.inner.captured() as f64);

    if trace::enabled() {
        crate::replay_queue(&b.setup_times, &popped, &mut out);
        replay(w, b.srv, &cap.inner, &mut out);
    }
    out
}

/// Replays the frames the monitor captured through the server-side
/// layers' public functions, outside the `World`:
///
/// * `admit.ns` — frames addressed to the server through
///   `PfDevice::admit` on a device with the server's gate, filters and
///   quotas;
/// * `demux.ns_*` — the same frames through `PfDevice::demux` on a
///   device holding the server's filter set and engine;
/// * `monitor.decode_ns` — every captured frame through
///   `pf_monitor::decode`.
fn replay(w: &World, srv: HostId, cap: &CaptureApp, out: &mut Outcome) {
    let live = w.device(srv);
    let mut dev = PfDevice::new();
    dev.set_engine(live.engine());
    for &idx in live.order() {
        let port = live.port(idx);
        let Some(filter) = port.filter.clone() else {
            continue;
        };
        let p = dev.open(port.owner);
        assert!(dev.set_filter(p, filter), "the live filter validates");
        dev.set_port_quota(p, port.quota);
    }
    dev.set_admission_control(live.admission_control());

    let to_srv: Vec<(&[u8], SimTime)> = cap
        .trace
        .iter()
        .filter(|c| c.bytes.first() == Some(&(SRV_ETH as u8)))
        .map(|c| (c.bytes.as_slice(), c.stamp.unwrap_or(SimTime::ZERO)))
        .collect();
    let admit_ns = batch_ns(to_srv.len(), |i| {
        let (f, t) = to_srv[i];
        std::hint::black_box(dev.admit(std::hint::black_box(f), t));
    });
    out.replay("admit.ns", to_srv.len(), admit_ns);
    let mut demux = Replay::default();
    for &(f, _) in &to_srv {
        demux.time(|| dev.demux(f));
    }
    out.replay("demux.ns_p50", demux.calls(), demux.quantile(0.50));
    out.replay("demux.ns_p99", demux.calls(), demux.quantile(0.99));
    let medium = Medium::experimental_3mb();
    let decode_ns = batch_ns(cap.trace.len(), |i| {
        std::hint::black_box(pf_monitor::decode(
            &medium,
            std::hint::black_box(&cap.trace[i].bytes),
        ));
    });
    out.replay("monitor.decode_ns", cap.trace.len(), decode_ns);
}
