//! Property test: the BSP machines deliver the exact byte stream over an
//! adversarial channel — arbitrary loss, duplication, and bounded
//! reordering drawn from a seeded script — or make no progress claim at
//! all. This drives the *pure* machines directly (no simulator), so
//! thousands of channel schedules run in milliseconds.

use pf_proto::bsp::{BspConfig, Effect, ReceiverMachine, SenderMachine, RTO_TOKEN};
use pf_proto::pup::{Pup, PupAddr};
use pf_sim::rng::{check, SplitMix64};
use std::collections::VecDeque;

/// One adversarial channel decision per carried packet.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    /// Swap with the next packet in flight (local reordering).
    Delay,
}

/// A script of up to `max - 1` fates, weighted 6 : 1 : 1 : 1 toward
/// delivery.
fn fates(rng: &mut SplitMix64, max: u64) -> Vec<Fate> {
    (0..rng.below(max))
        .map(|_| match rng.below(9) {
            0 => Fate::Drop,
            1 => Fate::Duplicate,
            2 => Fate::Delay,
            _ => Fate::Deliver,
        })
        .collect()
}

fn bytes(rng: &mut SplitMix64, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Drives sender and receiver to completion through the scripted channel;
/// returns the delivered bytes. Fates are consumed round-robin; once the
/// script is exhausted the channel turns reliable (so every run
/// terminates).
fn run_channel(payload: &[u8], cfg: BspConfig, fates: Vec<Fate>) -> Vec<u8> {
    let sa = PupAddr::new(1, 0x0A, 0x100);
    let ra = PupAddr::new(1, 0x0B, 0x200);
    let mut s = SenderMachine::new(sa, ra, cfg);
    let mut r = ReceiverMachine::new(ra);
    let mut delivered = Vec::new();
    let mut to_recv: VecDeque<Pup> = VecDeque::new();
    let mut to_send: VecDeque<Pup> = VecDeque::new();
    let mut fate_idx = 0usize;

    let apply_fate = |pup: Pup, queue: &mut VecDeque<Pup>, fate_idx: &mut usize| {
        let f = if *fate_idx < fates.len() {
            let f = fates[*fate_idx];
            *fate_idx += 1;
            f
        } else {
            Fate::Deliver
        };
        match f {
            Fate::Deliver => queue.push_back(pup),
            Fate::Drop => {}
            Fate::Duplicate => {
                queue.push_back(pup.clone());
                queue.push_back(pup);
            }
            Fate::Delay => {
                // Insert *before* the prior packet if any: local reorder.
                let last = queue.pop_back();
                queue.push_back(pup);
                if let Some(last) = last {
                    queue.push_back(last);
                }
            }
        }
    };

    let mut handle_sender_fx = Vec::new();
    handle_sender_fx.extend(s.connect());
    handle_sender_fx.extend(s.offer(payload));
    handle_sender_fx.extend(s.finish());
    for e in handle_sender_fx {
        if let Effect::Send(p) = e {
            apply_fate(p, &mut to_recv, &mut fate_idx);
        }
    }

    let mut steps = 0u32;
    while !s.is_closed() {
        steps += 1;
        assert!(steps < 200_000, "livelock");
        // Receiver consumes one packet.
        if let Some(p) = to_recv.pop_front() {
            for e in r.on_pup(&p) {
                match e {
                    Effect::Send(p) => apply_fate(p, &mut to_send, &mut fate_idx),
                    Effect::Deliver(d) => delivered.extend(d),
                    _ => {}
                }
            }
        }
        // Sender consumes one packet.
        if let Some(p) = to_send.pop_front() {
            for e in s.on_pup(&p) {
                if let Effect::Send(p) = e {
                    apply_fate(p, &mut to_recv, &mut fate_idx);
                }
            }
        }
        // When everything in flight has drained and the sender is still
        // open, fire its retransmission timer (virtual timeout).
        if to_recv.is_empty() && to_send.is_empty() && !s.is_closed() {
            for e in s.on_timer(RTO_TOKEN) {
                if let Effect::Send(p) = e {
                    apply_fate(p, &mut to_recv, &mut fate_idx);
                }
            }
        }
    }
    delivered
}

#[test]
fn exact_stream_over_adversarial_channel() {
    check(0xb5b0_0001, 64, |rng| {
        let len = rng.below(4000);
        let payload = bytes(rng, len);
        let fates = fates(rng, 200);
        let window = 1 + rng.below(5) as usize;
        let segment = [64, 200, 546][rng.below(3) as usize];
        let cfg = BspConfig {
            window,
            segment,
            ..Default::default()
        };
        assert_eq!(run_channel(&payload, cfg, fates), payload);
    });
}

#[test]
fn push_mode_also_survives() {
    check(0xb5b0_0002, 64, |rng| {
        let len = 1 + rng.below(999);
        let payload = bytes(rng, len);
        let fates = fates(rng, 100);
        let cfg = BspConfig {
            push: true,
            segment: 100,
            ..Default::default()
        };
        assert_eq!(run_channel(&payload, cfg, fates), payload);
    });
}

/// A failure the property once found, pinned with its exact inputs: a
/// 3,256-byte stream through a window of 5 and 64-byte segments under
/// an 81-fate script (`D` deliver, `X` drop, `U` duplicate, `L` delay
/// behind the packet before it).
#[test]
fn reordered_duplicate_window_five_regression() {
    const FATES: &str =
        "DDDDLDUDUDDDUDDXXDDDLDDUDDXDDXXLUDDDLXXDDDDDDXLDDDUDDDUXDDDDDDDXDUDLDLDDDUUDDDDXD";
    const PAYLOAD_HEX: &str = "\
    035152f6d32566ba706db6970f4757fb0740a274fa1d86f6a62000c83ed372e202645c0675569d4cb833a378\
    7d36a253503e004895727a84aaad597e91f9c53b6e0b654ff9d10430e1c8cb72ce0193d4a205b6e96c74e350\
    ee704bdb7dcdf63e15a63a7d2c1339cd1d825f1b443a2b9e17b0b5d68e58d394b7544aba288373c0ca1c3920\
    416d12a360e740575a26a232a1f8ec966c3979f0b1a6c54fb5f0d393f58e69cf80173572373cb83ad3d0a0c1\
    532a411c6bbd484d7e7b74ed44887fabe96a1d3782d935f9fc0a3008b597945282616eafc08566c734dbd8f4\
    33e4355864046b6b1bf4f3619f7fe303d65d8695f81fa359d5a2f5bfef506d0da272d5829b2d15a75b49c594\
    32c77a1c7e4885f81190308f43b499d0e1a2f509c1396d94e31f3f166c4ef26d7b66a52116f08167fa526ef6\
    40fe12d03e262cb050ba90ed6ee6b4bae151e1ed58fd9196607c6ef8e6905005becd598ffbde2f8627a8f667\
    fa1f7b364497f909578e3abe07bcd949b2aee490767a0133de56a98252c09d33f41a85debb7786d7828a9873\
    8ff34d2ec98a12fb8f7b0e1f00dcfe1eaea240d1394a0233eb58750cb4a88b106f44cf5a2ff3a961647fc549\
    e04cdc812a57624657782f6be91aca7c5f3a5b909bfb1102cf74a51d45687a2aa3b638189fbed778fa4b3545\
    09171735657471dff216b8348c41e7b94bdd89da839d21928d9b4e2f8e039babc9ad57aa3c95b0a441fbabef\
    43bbfc432d9433723a5def673bd49b4104b3a119176666b7df383c4a86af277af6a3c55250aec65b9f2a385a\
    76d23059cb9b76bbaff13a0bcca86774e8e861ff0078b0f245845de094e2e2cf5dafb80c04ff57dc78fa3668\
    24b60f30ab58d7b94016012c95335062ff312b32a94ff8f6c25a838307390036548f8a401e59954209cc0c76\
    8204726c06d6f614eac5493fc075e5248fc74f68d23bf6d7870e1332b2b2ed3e5bed97e291a49681206078be\
    fa5cbc88c626015d8765d39989d30daa36cd7ac896686d66a560ba798ff1d61f2823639a73070e124c98c9e1\
    29e041d250c84859cb9710df4886ee4330f053b1b20a8b821840b7b1384717600e4548215bb9df4dafc654e8\
    287d5268e855a5afa74abb60278d3d8b5c18a5c11ee27e6b0980f9f30f2dafe51425f28b0b34068a59378575\
    6a5757658eb69579c76b5341a7ee388da60b637a6eff6dff3bb6af102790a3b8c163ada4cbaf9f85e5c0754b\
    00abed49662aed94770122e6f2d4ccb129e515a78e20b0fa363daa604e052badec9a87aa1204dd382671a20a\
    16b14d1ee961ac875f7d7684f1208b9594599217646b0997642b333682853a0126f2e1fcef71200b75c7ca15\
    8cf8d80da5e04d37415e271d39e1dd328edfd47e9b9129cacbdef6c191f729d3f5c063ae5ce7bbcb42ebc444\
    b7a21ec2f88dfeba7deaf914dc633f5c8279d3d4077940e02424219a5d07e6c21ad9fd416f39180e0256de1d\
    b8ff61ee1da380301ff4a3efd0ece7d5a37f2d6511b0ed8f7c34199edf4288febfc33974adebf6048dbf5689\
    1fd4d097233914c91b6f0bf553fd596c2ae6d12a3b4ac68cb24410c32d543a8ca645528330b8b8b79d589ffe\
    2ef85022f04b3eb85641d047b1af7b635a295d2568c239697c1676f768163fff075b5014ed2834241bc1c560\
    bb0f0722bcc7c23156d1222e107b1db1ef587e1f919b5f05e8b9f06b8b4defb9c2c6f4e603b803e1c18b233c\
    93928a643a4b13a857950e77785a23e2250fe20cbfd55f9b8ac81df694bccc605ebc4f4d2fe21c3d45f2b681\
    9a64d8a7fdef2a63b5227ff529c4c11ea5a2f053ea79e6e8fa3cd5a28afb15657bfa693d3c9589c25cd9c9e2\
    15d49f8b97e81edf24dbf7717a82eaa3221580a992e69fced20772a557a1d36163e66c2bcf0d62e9ca11d32a\
    c14a55edf1ab1c354958af969dbe38d4d28c236ec56f4c6a81285afebdd9a5c22ac0fd963d368e0f7017fb9b\
    c1c3715d0dd4b0847ff7d4d7f81f865e21dc9713345a22d5af9f18fc75d3d31c2e3a7e95b05d7a8be9feae61\
    75941148b8df42cda150b69d7ddc9a4b337005f71a99d1a3fc66b364567f0d8e6625dbb918dfde80af49dc25\
    4bdfbf11efded223ed45d257845098c9d2603acd3f683376b60973a5d340cbfb9fb588692679a22e16a8e778\
    2a752b224699e93759ee34ffb9604daf0d4317a98205e01282d8eaedd5fe4a7a0a955634db627580476862bd\
    caba1335fd03c5f27c139aaf3b5c0981f2006442fc21727bf94e923717f4a9512ab09c8a364db61dee878d54\
    0be8ecf061243a11273f23346d950484169cba5aeb7f5922618d922af986614bcc71d462a142a1d3e7360242\
    8e23e2f296d691de93d38bfe0c987eb78a275121a0b0d04c39fb93566ada0ec72362e583f7e6c472dccdbd37\
    8c8a7957266447ce4ea19b0dbe5546305a357de7cfab882379bf1557f47799bc9548009c4019355a5b8d028f\
    f50510cad31cb851019a1e58c31b9a2574af692a78e489e895bda93c0578507a1dc4d9d3ab6c5bb35dbbbcd7\
    dcac61c01066c837d35e46784fd8b48f3a2600b0478b930d23fc31886e211f6cffcba8c4be1e3b8aeace0907\
    daa4c8d0132f991df1fd3d2b7bb94751c09474205368057dd440396fae3a3a2295de90deea1aeffde842b695\
    4879f48e67c115e56f1ef9ca9dd135c4f681df7db203bad04d5771855770d9ab66cbbb75b955b6b3e6db4664\
    954ab549a380505b62feaa7cec70e1d62aa54eebc8dc0204adf21b92521d5d79221e9044677a3774bb20cfab\
    2dec4548decb0b7e5cb3da1e16e8f28c57379e51512261e34da251d1d65fc45376172f8c05d1a4e648b8a9f7\
    ae92d98bcc223bc4e7b884a42887a148ec02e584095dcb77aeb2dbcecae732deb1cd8973dadc13db4c68daa0\
    675bbedadc367a281f809138d5890234ea1b5dc59ec1e1aada2ccb7ffae96858c71133ad47afb0a18e52f164\
    f8e4d1040a7449f814cfc48d9ab79d8c2b155db4e5f00004c6c882646a30143801f5412769cd991e4727bf09\
    c6db565ce081bf993d9773c16aeb86b67e48c52576087340cee6b613b8ca93435429c94ced88273856a1dda3\
    fb96845c803a25c7995385eabe402537ae1bd4b5ec292d7b9318666ecff4330ea8ed77013818433d2989fd95\
    84dfa069cd8fc02a9fcc4e65248a8b35669f956d283705852fe93eaf307fdaa4f71656d039324be4159ffbbf\
    0a21f55f02ef36f8d3853ec024aeaf381b7b82d43dacfbfd6c0eac9bbb77336ef12dcb70cec06e6f7b57989c\
    82f5d060bf99ed7f775dde06b44de04e43cc9985adaf8a87b06d551a5a0cd11b66f65b7c706497b5db18a881\
    1dff17bac1645bf6d65da725bd05f28281f4e8476c6fdf000119738f4d0fe63506b9c6b301c97917daaf07fc\
    ba2a8806a693d274ef3c3a3ca9ea051a3acd7a6e7514ba7efb850e20028023e09dfb50e2309e3d4f0b0c6e1f\
    05515fe4d0e17ea7b62c2c95f2e128521a6b18e24c2f62482a7e14dcbd7590f112525633e98cb737cf8445ec\
    4a736854919f43a1d2f8f5ae21a1279f7498c36ead153b38c45f688339ecb5ca07d7f7cebee2eee46111b877\
    03144088a5866a77acc765025bb365ca3915b5981c23121e44d38b7b9503af17425410e60a58a649cd45e142\
    a85821f0a515756af5598b5109f4dfc5848133a455a78395d6b7369a273effcb1a6e1dbe0905885c9439ffc8\
    bf199d53bcd81a3c698e265a8f78a6fd1a94446d9d7716ff1e4d0008e067818ddb94c81e10cab1247d2d4627\
    50f9783187cf9c10aee78102338d2868ec8b621f497a285defba9fb22d58a3fa722c3e83909a77f4124a361e\
    4b651849457c493926f28ccefddfd87a5efbd6f9b5d4db29353ce2efe27039e2824b0d864422f69f66867f42\
    f974a82049dc323ab466bc1c410b9642d7e4b868c30964a43418290f6cabfbfe8aa932f4ee77b55be3d8b5a1\
    93ea7ab9e14a9261c2b6a6fdfb65cfca2c6aca17966f7b6726c17834b6e1a0e68935b1f8736d402714a85f4b\
    938acbb16d4dc20dc2bc714df69dbe7995faff9e3bb0b582c5ad1ed51bc865b045a17ea1ee73d21683b88b51\
    188536386accd4d36e8c2b552407d6e34c6630bd2a1aa6e124d56541845ea1fd3eb8c42a559e9eb3db095ed9\
    f3f64358d5135bd9be583da7e464c01adc2ca4d036a1347f565ba933664d344c4b08e2c626d7b6e1cfe4957e\
    1986cd9d232ef25551a1deb890c0f6ae48a556ffcc5edf7cb47f0eaf8d64605f01bf124da7e487670313257a\
    e65f7bc2c9a78a70b9b8f05f8d6b462ab2d1f904c2922291b738f56c000009d7f7d5f396d3430b8db974bf18\
    9c678424827c1fdf5867e8df514a62227e0b60f3a85a75d630d2c06d8c38e47be6b07d00f7bce1ea80edc483\
    90d7670299af5b98a592bb9aed14800a382f67eb85bb979f84150f3d8fb2a561e8edee7efd563a71dac95742\
    69440a26ac9bda86b0d081fd82fde7acf14f656137d7634d2ee1799a1775908ae47916e1361e11ecdb2c779d\
    8c421eddf0359a9e1b5083fae4a076143f8ae64ccf099ab89892b39811309d0831dee27a4366bac5b14b8be5";
    let payload: Vec<u8> = (0..PAYLOAD_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&PAYLOAD_HEX[i..i + 2], 16).unwrap())
        .collect();
    let fates: Vec<Fate> = FATES
        .chars()
        .map(|c| match c {
            'D' => Fate::Deliver,
            'X' => Fate::Drop,
            'U' => Fate::Duplicate,
            _ => Fate::Delay,
        })
        .collect();
    assert_eq!((payload.len(), fates.len()), (3256, 81));
    let cfg = BspConfig {
        window: 5,
        segment: 64,
        ..Default::default()
    };
    assert_eq!(run_channel(&payload, cfg, fates), payload);
}
