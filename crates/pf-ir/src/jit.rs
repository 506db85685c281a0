//! The template JIT: threaded code to native machine code (rung 8).
//!
//! [`crate::exec::IrFilter`] already does the hard compilation work — the
//! CFG is optimized, flattened, and guard-fused into one dense `TOp`
//! array. What remains between that and the paper's §7 "compiling the
//! filters into machine code" endpoint is only the dispatch loop: every
//! `TOp` costs a `match` and a bounds-checked fetch per step. This module
//! removes it by *templating*: each `TOp` expands to a fixed straight-line
//! machine-code sequence (x86-64 and aarch64), branch targets become
//! relative jumps, and the packet word a fused guard tests becomes a
//! single compare-immediate against the big-endian halfword in place.
//!
//! # W^X discipline
//!
//! Code lands in an anonymous private mapping created read-write, is
//! copied in, and is then flipped to read-execute before the first call;
//! the mapping is never writable and executable at once. The
//! `mmap`/`mprotect`/`munmap` calls are raw inline-asm syscalls so the
//! default build's no-dependency policy holds with the feature on too.
//!
//! # Fallback story
//!
//! Emission is best-effort and *refusable*: unsupported target (anything
//! but Linux on x86-64/aarch64), oversized programs, a failed `mmap`, or
//! an out-of-range branch all yield a [`JitFilter`] that simply runs the
//! threaded-code engine — same verdicts, no feature cliff. At call time
//! two packet shapes also route around the native code: packets shorter
//! than the validator's `min_packet_words` (the checked-interpreter
//! fallback the whole ladder shares, §4 semantics) and odd-length packets
//! (whose trailing byte forms the *high* half of the last word — rare
//! enough that the templates assume even length and let the threaded
//! engine handle the remainder).

use crate::exec::IrFilter;
use pf_filter::error::ValidateError;
use pf_filter::interp::InterpConfig;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;
use std::sync::Arc;

/// A filter compiled to native machine code, with the threaded-code
/// engine as a verdict-identical fallback.
///
/// # Examples
///
/// ```
/// use pf_filter::packet::PacketView;
/// use pf_filter::samples;
/// use pf_ir::jit::JitFilter;
///
/// let f = JitFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
/// let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
/// assert!(f.eval(PacketView::new(&pkt)));
/// ```
#[derive(Clone)]
pub struct JitFilter {
    /// The threaded-code compilation: fallback engine, source program,
    /// and the `TOp` array the templates expand.
    inner: IrFilter,
    /// The executable buffer, when emission succeeded.
    native: Option<Arc<native::ExecBuf>>,
}

impl std::fmt::Debug for JitFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitFilter")
            .field("inner", &self.inner)
            .field("jitted", &self.native.is_some())
            .finish()
    }
}

impl JitFilter {
    /// Validates and compiles under the default configuration.
    ///
    /// # Errors
    ///
    /// Returns the validator's verdict on a malformed program.
    pub fn compile(program: FilterProgram) -> Result<Self, ValidateError> {
        Self::compile_with_config(program, InterpConfig::default())
    }

    /// Validates and compiles under an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns the validator's verdict on a malformed program.
    pub fn compile_with_config(
        program: FilterProgram,
        config: InterpConfig,
    ) -> Result<Self, ValidateError> {
        Ok(Self::from_validated(&ValidatedProgram::with_config(
            program, config,
        )?))
    }

    /// Compiles an already-validated program, attempting native emission.
    pub fn from_validated(validated: &ValidatedProgram) -> Self {
        Self::build(IrFilter::from_validated(validated), true)
    }

    /// Compiles with native emission artificially refused: the filter is
    /// permanently on the threaded-code fallback. This is the test hook
    /// for the fallback path; verdicts are identical either way.
    pub fn from_validated_forced_fallback(validated: &ValidatedProgram) -> Self {
        Self::build(IrFilter::from_validated(validated), false)
    }

    fn build(inner: IrFilter, allow_native: bool) -> Self {
        let native = if allow_native {
            native::compile(inner.code(), inner.reg_count())
        } else {
            None
        };
        JitFilter { inner, native }
    }

    /// Whether native code was emitted (false means every evaluation runs
    /// the threaded-code fallback).
    pub fn is_jitted(&self) -> bool {
        self.native.is_some()
    }

    /// Emitted machine-code size in bytes, when native.
    pub fn native_code_len(&self) -> Option<usize> {
        self.native.as_ref().map(|b| b.len())
    }

    /// The source program.
    pub fn program(&self) -> &FilterProgram {
        self.inner.program()
    }

    /// The filter's priority.
    pub fn priority(&self) -> u8 {
        self.inner.priority()
    }

    /// The configuration the filter was compiled under.
    pub fn config(&self) -> InterpConfig {
        self.inner.config()
    }

    /// Packet length (in words) below which evaluation falls back to the
    /// checked interpreter, exactly as [`IrFilter`] does.
    pub fn min_packet_words(&self) -> usize {
        self.inner.min_packet_words()
    }

    /// Evaluates against a packet; `true` means *accept*.
    pub fn eval(&self, packet: PacketView<'_>) -> bool {
        if let Some(native) = &self.native {
            let bytes = packet.bytes();
            if bytes.len() % 2 == 0 && packet.word_len() >= self.inner.min_packet_words() {
                // SAFETY: the buffer holds code emitted for exactly this
                // program's `TOp` array; the templates' preconditions
                // (even byte length, every static word index in bounds)
                // are established by the two checks above plus the
                // validator's min-words analysis.
                return unsafe { native.call(bytes) };
            }
        }
        self.inner.eval(packet)
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod native {
    use super::super::exec::TOp;
    use std::sync::Arc;

    /// Programs past these bounds fall back to threaded code: the stack
    /// frame stays small and every emitted branch stays in range.
    const MAX_JIT_REGS: usize = 1024;
    const MAX_JIT_OPS: usize = 1 << 16;

    /// Emits and installs native code, or `None` to fall back.
    pub(super) fn compile(code: &[TOp], reg_count: usize) -> Option<Arc<ExecBuf>> {
        if reg_count > MAX_JIT_REGS || code.len() > MAX_JIT_OPS || code.is_empty() {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        let buf = x64::emit(code, reg_count)?;
        #[cfg(target_arch = "aarch64")]
        let buf = a64::emit(code, reg_count)?;
        ExecBuf::install(&buf).map(Arc::new)
    }

    /// Native entry point: `(packet bytes, byte length) -> 0 | 1`.
    ///
    /// The explicit `sysv64` ABI pins the x86-64 register convention the
    /// templates assume (`rdi` = bytes, `rsi` = length, result in `eax`).
    #[cfg(target_arch = "x86_64")]
    type NativeFn = unsafe extern "sysv64" fn(*const u8, usize) -> u32;
    #[cfg(target_arch = "aarch64")]
    type NativeFn = unsafe extern "C" fn(*const u8, usize) -> u32;

    /// An executable W^X code mapping.
    pub(super) struct ExecBuf {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: after `install` the mapping is immutable (read-execute) for
    // the lifetime of the value; concurrent calls only read it.
    unsafe impl Send for ExecBuf {}
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        /// Maps read-write, copies the code in, then seals read-execute.
        fn install(code: &[u8]) -> Option<ExecBuf> {
            let ptr = sys::map_rw(code.len())?;
            // SAFETY: `ptr` is a fresh private mapping of at least
            // `code.len()` bytes, writable until the mprotect below.
            unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len()) };
            #[cfg(target_arch = "aarch64")]
            // SAFETY: the range was just written through `ptr`.
            unsafe {
                flush_icache(ptr, code.len());
            }
            if !sys::protect_rx(ptr, code.len()) {
                sys::unmap(ptr, code.len());
                return None;
            }
            Some(ExecBuf {
                ptr,
                len: code.len(),
            })
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }

        /// # Safety
        ///
        /// `bytes` must have even length, and every packet word the
        /// compiled program addresses statically must be in bounds (the
        /// caller checks `min_packet_words`).
        pub(super) unsafe fn call(&self, bytes: &[u8]) -> bool {
            // SAFETY: `ptr` holds a complete emitted function with the
            // NativeFn signature, mapped executable by `install`.
            let f: NativeFn = unsafe { std::mem::transmute::<*mut u8, NativeFn>(self.ptr) };
            // SAFETY: preconditions forwarded from the caller.
            unsafe { f(bytes.as_ptr(), bytes.len()) != 0 }
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            sys::unmap(self.ptr, self.len);
        }
    }

    /// Makes freshly written aarch64 code visible to instruction fetch:
    /// clean dcache to the point of unification, invalidate icache, and
    /// synchronize. (x86-64 caches are coherent; nothing to do there.)
    ///
    /// # Safety
    ///
    /// The `[start, start + len)` range must be a valid mapping.
    #[cfg(target_arch = "aarch64")]
    unsafe fn flush_icache(start: *mut u8, len: usize) {
        let ctr: u64;
        // SAFETY: CTR_EL0 is readable from EL0.
        unsafe { std::arch::asm!("mrs {}, ctr_el0", out(reg) ctr, options(nomem, nostack)) };
        let dline = 4usize << ((ctr >> 16) & 0xF);
        let iline = 4usize << (ctr & 0xF);
        let begin = start as usize;
        let end = begin + len;
        let mut p = begin & !(dline - 1);
        while p < end {
            // SAFETY: `p` stays within the caller's mapped range.
            unsafe { std::arch::asm!("dc cvau, {}", in(reg) p, options(nostack)) };
            p += dline;
        }
        // SAFETY: barrier instructions only.
        unsafe { std::arch::asm!("dsb ish", options(nostack)) };
        let mut p = begin & !(iline - 1);
        while p < end {
            // SAFETY: `p` stays within the caller's mapped range.
            unsafe { std::arch::asm!("ic ivau, {}", in(reg) p, options(nostack)) };
            p += iline;
        }
        // SAFETY: barrier instructions only.
        unsafe { std::arch::asm!("dsb ish", "isb", options(nostack)) };
    }

    /// Raw anonymous-mapping syscalls — no libc, no crates.
    mod sys {
        const PROT_READ: usize = 1;
        const PROT_WRITE: usize = 2;
        const PROT_EXEC: usize = 4;
        const MAP_PRIVATE: usize = 2;
        const MAP_ANONYMOUS: usize = 0x20;

        #[cfg(target_arch = "x86_64")]
        mod nr {
            pub const MMAP: usize = 9;
            pub const MPROTECT: usize = 10;
            pub const MUNMAP: usize = 11;
        }
        #[cfg(target_arch = "aarch64")]
        mod nr {
            pub const MMAP: usize = 222;
            pub const MPROTECT: usize = 226;
            pub const MUNMAP: usize = 215;
        }

        #[cfg(target_arch = "x86_64")]
        unsafe fn syscall6(
            nr: usize,
            a: usize,
            b: usize,
            c: usize,
            d: usize,
            e: usize,
            f: usize,
        ) -> isize {
            let ret;
            // SAFETY: a well-formed Linux syscall; rcx/r11 are declared
            // clobbered per the kernel ABI.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") nr => ret,
                    in("rdi") a,
                    in("rsi") b,
                    in("rdx") c,
                    in("r10") d,
                    in("r8") e,
                    in("r9") f,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack)
                );
            }
            ret
        }

        #[cfg(target_arch = "aarch64")]
        unsafe fn syscall6(
            nr: usize,
            a: usize,
            b: usize,
            c: usize,
            d: usize,
            e: usize,
            f: usize,
        ) -> isize {
            let ret;
            // SAFETY: a well-formed Linux syscall.
            unsafe {
                std::arch::asm!(
                    "svc 0",
                    inlateout("x0") a => ret,
                    in("x1") b,
                    in("x2") c,
                    in("x3") d,
                    in("x4") e,
                    in("x5") f,
                    in("x8") nr,
                    options(nostack)
                );
            }
            ret
        }

        /// A fresh read-write anonymous private mapping, or `None`.
        pub fn map_rw(len: usize) -> Option<*mut u8> {
            // SAFETY: mmap with a null hint allocates a fresh range; the
            // arguments request an anonymous private mapping.
            let r = unsafe {
                syscall6(
                    nr::MMAP,
                    0,
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    usize::MAX, // fd = -1
                    0,
                )
            };
            if r <= 0 {
                return None; // -errno (or a null mapping we refuse)
            }
            Some(r as *mut u8)
        }

        /// Seals a mapping read-execute.
        pub fn protect_rx(ptr: *mut u8, len: usize) -> bool {
            // SAFETY: `ptr`/`len` come from a successful `map_rw`.
            unsafe {
                syscall6(
                    nr::MPROTECT,
                    ptr as usize,
                    len,
                    PROT_READ | PROT_EXEC,
                    0,
                    0,
                    0,
                ) == 0
            }
        }

        pub fn unmap(ptr: *mut u8, len: usize) {
            // SAFETY: `ptr`/`len` come from a successful `map_rw`.
            unsafe { syscall6(nr::MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
        }
    }

    /// The x86-64 templates.
    ///
    /// Convention: `rdi` = packet bytes, `rsi` = byte length (even).
    /// Virtual registers live as 16-bit slots at `[rsp + 2*reg]`;
    /// `eax`/`ecx`/`edx` are scratch. Packet words load little-endian and
    /// `rol ax, 8` restores network byte order — except fused guards,
    /// which compare the halfword in place against a byte-swapped literal.
    #[cfg(target_arch = "x86_64")]
    mod x64 {
        use super::super::super::exec::TOp;
        use super::super::super::ir::IrBinOp;

        struct Asm {
            buf: Vec<u8>,
            /// `(rel32 position, target TOp index)` branch patches.
            fixups: Vec<(usize, u32)>,
            /// rel32 positions jumping to the shared reject stub.
            reject_fixups: Vec<usize>,
            frame: u32,
        }

        impl Asm {
            fn put(&mut self, bytes: &[u8]) {
                self.buf.extend_from_slice(bytes);
            }

            fn imm16(&mut self, v: u16) {
                self.put(&v.to_le_bytes());
            }

            fn imm32(&mut self, v: u32) {
                self.put(&v.to_le_bytes());
            }

            /// ModRM+SIB+disp for a 16-bit register slot `[rsp + off]`,
            /// with `reg` as the ModRM reg field.
            fn slot(&mut self, reg: u8, off: u32) {
                if off < 128 {
                    self.put(&[0x40 | (reg << 3) | 4, 0x24, off as u8]);
                } else {
                    self.put(&[0x80 | (reg << 3) | 4, 0x24]);
                    self.imm32(off);
                }
            }

            /// `movzx r32, word [rsp + off]` (r32 by ModRM reg number).
            fn load_slot(&mut self, reg: u8, off: u32) {
                self.put(&[0x0F, 0xB7]);
                self.slot(reg, off);
            }

            /// `mov [rsp + off], r16` (r16 by ModRM reg number).
            fn store_slot(&mut self, reg: u8, off: u32) {
                self.put(&[0x66, 0x89]);
                self.slot(reg, off);
            }

            /// `cmp word [rsp + off], 0`.
            fn cmp_slot_zero(&mut self, off: u32) {
                self.put(&[0x66, 0x83]);
                self.slot(7, off);
                self.put(&[0x00]);
            }

            /// A `jcc`/`jmp` with a rel32 to a TOp-index target.
            fn branch(&mut self, opcode: &[u8], target: u32) {
                self.put(opcode);
                self.fixups.push((self.buf.len(), target));
                self.imm32(0);
            }

            /// A `jcc` rel32 to the shared reject stub.
            fn branch_reject(&mut self, opcode: &[u8]) {
                self.put(opcode);
                self.reject_fixups.push(self.buf.len());
                self.imm32(0);
            }

            /// `mov eax, imm; add rsp, frame; ret`.
            fn epilogue(&mut self, verdict: u32) {
                self.put(&[0xB8]);
                self.imm32(verdict);
                self.put(&[0x48, 0x81, 0xC4]);
                let frame = self.frame;
                self.imm32(frame);
                self.put(&[0xC3]);
            }
        }

        pub(in super::super) fn emit(code: &[TOp], reg_count: usize) -> Option<Vec<u8>> {
            let frame = ((2 * reg_count as u32) + 15) & !15;
            let mut a = Asm {
                buf: Vec::with_capacity(code.len() * 16 + 64),
                fixups: Vec::new(),
                reject_fixups: Vec::new(),
                frame,
            };

            // Prologue: carve and zero the register frame.
            if frame > 0 {
                a.put(&[0x48, 0x81, 0xEC]); // sub rsp, frame
                a.imm32(frame);
                let mut off = 0;
                while off < 2 * reg_count as u32 {
                    a.put(&[0x48, 0xC7]); // mov qword [rsp+off], 0
                    a.slot(0, off);
                    a.imm32(0);
                    off += 8;
                }
            }

            let mut offsets = Vec::with_capacity(code.len());
            for op in code {
                offsets.push(a.buf.len());
                match *op {
                    TOp::Const { dst, value } => {
                        a.put(&[0x66, 0xC7]);
                        a.slot(0, 2 * u32::from(dst));
                        a.imm16(value);
                    }
                    TOp::LoadWord { dst, index } => {
                        a.put(&[0x0F, 0xB7, 0x87]); // movzx eax, word [rdi+2i]
                        a.imm32(2 * u32::from(index));
                        a.put(&[0x66, 0xC1, 0xC0, 0x08]); // rol ax, 8
                        a.store_slot(0, 2 * u32::from(dst));
                    }
                    TOp::LoadInd { dst, index } => {
                        a.load_slot(1, 2 * u32::from(index)); // movzx ecx, slot
                        a.put(&[0x01, 0xC9]); // add ecx, ecx
                        a.put(&[0x48, 0x39, 0xF1]); // cmp rcx, rsi
                        a.branch_reject(&[0x0F, 0x83]); // jae reject (OOB)
                        a.put(&[0x0F, 0xB7, 0x04, 0x0F]); // movzx eax, word [rdi+rcx]
                        a.put(&[0x66, 0xC1, 0xC0, 0x08]); // rol ax, 8
                        a.store_slot(0, 2 * u32::from(dst));
                    }
                    TOp::Bin {
                        op,
                        dst,
                        a: ra,
                        b: rb,
                    } => {
                        a.load_slot(0, 2 * u32::from(ra)); // eax := regs[a]
                        a.load_slot(1, 2 * u32::from(rb)); // ecx := regs[b]
                        let setcc = |a: &mut Asm, cc: u8| {
                            a.put(&[0x39, 0xC8]); // cmp eax, ecx
                            a.put(&[0x0F, cc, 0xC0]); // setcc al
                            a.put(&[0x0F, 0xB6, 0xC0]); // movzx eax, al
                        };
                        match op {
                            IrBinOp::Eq => setcc(&mut a, 0x94),
                            IrBinOp::Neq => setcc(&mut a, 0x95),
                            IrBinOp::Lt => setcc(&mut a, 0x92),
                            IrBinOp::Le => setcc(&mut a, 0x96),
                            IrBinOp::Gt => setcc(&mut a, 0x97),
                            IrBinOp::Ge => setcc(&mut a, 0x93),
                            IrBinOp::And => a.put(&[0x21, 0xC8]),
                            IrBinOp::Or => a.put(&[0x09, 0xC8]),
                            IrBinOp::Xor => a.put(&[0x31, 0xC8]),
                            IrBinOp::Add => a.put(&[0x01, 0xC8]),
                            IrBinOp::Sub => a.put(&[0x29, 0xC8]),
                            IrBinOp::Mul => a.put(&[0x0F, 0xAF, 0xC1]),
                            IrBinOp::Div | IrBinOp::Mod => {
                                a.put(&[0x85, 0xC9]); // test ecx, ecx
                                a.branch_reject(&[0x0F, 0x84]); // jz reject
                                a.put(&[0x31, 0xD2]); // xor edx, edx
                                a.put(&[0xF7, 0xF1]); // div ecx
                                if op == IrBinOp::Mod {
                                    a.put(&[0x89, 0xD0]); // mov eax, edx
                                }
                            }
                            IrBinOp::Lsh | IrBinOp::Rsh => {
                                a.put(&[0x83, 0xE1, 0x0F]); // and ecx, 15
                                let mode = if op == IrBinOp::Lsh { 0xE0 } else { 0xE8 };
                                a.put(&[0xD3, mode]); // shl/shr eax, cl
                            }
                        }
                        a.store_slot(0, 2 * u32::from(dst));
                    }
                    TOp::Jump { target } => a.branch(&[0xE9], target),
                    TOp::BranchIf { cond, target } => {
                        a.cmp_slot_zero(2 * u32::from(cond));
                        a.branch(&[0x0F, 0x85], target); // jne
                    }
                    TOp::BranchIfNot { cond, target } => {
                        a.cmp_slot_zero(2 * u32::from(cond));
                        a.branch(&[0x0F, 0x84], target); // je
                    }
                    TOp::GuardEqBr { word, lit, target } | TOp::GuardNeBr { word, lit, target } => {
                        // cmp word [rdi+2w], lit.swap_bytes()
                        a.put(&[0x66, 0x81, 0xBF]);
                        a.imm32(2 * u32::from(word));
                        a.imm16(lit.swap_bytes());
                        let cc: &[u8] = if matches!(op, TOp::GuardEqBr { .. }) {
                            &[0x0F, 0x84] // je
                        } else {
                            &[0x0F, 0x85] // jne
                        };
                        a.branch(cc, target);
                    }
                    TOp::GuardInBr {
                        word,
                        lo,
                        hi,
                        target,
                    }
                    | TOp::GuardOutBr {
                        word,
                        lo,
                        hi,
                        target,
                    } => {
                        // movzx eax, word [rdi+2w]; rol ax, 8
                        a.put(&[0x0F, 0xB7, 0x87]);
                        a.imm32(2 * u32::from(word));
                        a.put(&[0x66, 0xC1, 0xC0, 0x08]);
                        // Unsigned-span trick: v - lo <= hi - lo (as u32)
                        // iff lo <= v <= hi.
                        a.put(&[0x2D]); // sub eax, imm32
                        a.imm32(u32::from(lo));
                        a.put(&[0x3D]); // cmp eax, imm32
                        a.imm32(u32::from(hi - lo));
                        let cc: &[u8] = if matches!(op, TOp::GuardInBr { .. }) {
                            &[0x0F, 0x86] // jbe
                        } else {
                            &[0x0F, 0x87] // ja
                        };
                        a.branch(cc, target);
                    }
                    TOp::Return { accept } => a.epilogue(u32::from(accept)),
                    TOp::ReturnReg { reg } => {
                        a.cmp_slot_zero(2 * u32::from(reg));
                        a.put(&[0x0F, 0x95, 0xC0]); // setne al
                        a.put(&[0x0F, 0xB6, 0xC0]); // movzx eax, al
                        a.put(&[0x48, 0x81, 0xC4]); // add rsp, frame
                        a.imm32(frame);
                        a.put(&[0xC3]);
                    }
                }
            }

            // Shared reject stub for runtime faults.
            let reject = a.buf.len();
            a.epilogue(0);

            for (pos, target) in std::mem::take(&mut a.fixups) {
                let rel = offsets[target as usize] as i64 - (pos as i64 + 4);
                a.buf[pos..pos + 4].copy_from_slice(&(rel as i32).to_le_bytes());
            }
            for pos in std::mem::take(&mut a.reject_fixups) {
                let rel = reject as i64 - (pos as i64 + 4);
                a.buf[pos..pos + 4].copy_from_slice(&(rel as i32).to_le_bytes());
            }
            Some(a.buf)
        }
    }

    /// The aarch64 templates.
    ///
    /// Convention: `x0` = packet bytes, `x1` = byte length (even).
    /// Virtual registers are 16-bit slots at `[sp + 2*reg]`; `w8`–`w10`
    /// are scratch. Packet offsets are materialized with `movz`+`lsl` so
    /// any `u16` word index stays encodable; `rev16` restores network
    /// byte order after each little-endian halfword load.
    #[cfg(target_arch = "aarch64")]
    mod a64 {
        use super::super::super::exec::TOp;
        use super::super::super::ir::IrBinOp;

        const EQ: u32 = 0;
        const NE: u32 = 1;
        const HS: u32 = 2;
        const LO: u32 = 3;
        const HI: u32 = 8;
        const LS: u32 = 9;

        enum Patch {
            /// `b` (imm26).
            B { pos: usize, target: u32 },
            /// `b.cond`/`cbz`/`cbnz` (imm19 at bits 5–23).
            B19 { pos: usize, target: u32 },
            /// imm19 branch to the shared reject stub.
            Reject { pos: usize },
        }

        struct Asm {
            buf: Vec<u8>,
            patches: Vec<Patch>,
            frame: u32,
        }

        impl Asm {
            fn ins(&mut self, w: u32) {
                self.buf.extend_from_slice(&w.to_le_bytes());
            }

            /// `movz wd, #imm16`.
            fn movz(&mut self, rd: u32, imm: u16) {
                self.ins(0x5280_0000 | (u32::from(imm) << 5) | rd);
            }

            /// `ldrh wt, [sp, #off]` (off even, ≤ 8190 by the reg cap).
            fn ldrh_sp(&mut self, rt: u32, off: u32) {
                self.ins(0x7940_0000 | ((off / 2) << 10) | (31 << 5) | rt);
            }

            /// `strh wt, [sp, #off]`.
            fn strh_sp(&mut self, rt: u32, off: u32) {
                self.ins(0x7900_0000 | ((off / 2) << 10) | (31 << 5) | rt);
            }

            /// Loads the big-endian packet word at static word `index`
            /// into `wt`: `movz w8, #index; lsl w8, w8, #1;
            /// ldrh wt, [x0, x8]; rev16 wt, wt`.
            fn load_packet_word(&mut self, rt: u32, index: u16) {
                self.movz(8, index);
                self.ins(0x531F_7800 | (8 << 5) | 8); // lsl w8, w8, #1
                self.ins(0x7860_6800 | (8 << 16) | rt); // ldrh wt, [x0, x8]
                self.ins(0x5AC0_0400 | (rt << 5) | rt); // rev16 wt, wt
            }

            /// `cset wd, cond`.
            fn cset(&mut self, rd: u32, cond: u32) {
                self.ins(0x1A9F_07E0 | ((cond ^ 1) << 12) | rd);
            }

            fn b(&mut self, target: u32) {
                self.patches.push(Patch::B {
                    pos: self.buf.len(),
                    target,
                });
                self.ins(0x1400_0000);
            }

            /// `b.cond` to a TOp-index target.
            fn bcond(&mut self, cond: u32, target: u32) {
                self.patches.push(Patch::B19 {
                    pos: self.buf.len(),
                    target,
                });
                self.ins(0x5400_0000 | cond);
            }

            /// `b.cond` to the shared reject stub.
            fn bcond_reject(&mut self, cond: u32) {
                self.patches.push(Patch::Reject {
                    pos: self.buf.len(),
                });
                self.ins(0x5400_0000 | cond);
            }

            /// `cbz`/`cbnz wt` to a TOp-index target.
            fn cbz(&mut self, rt: u32, nonzero: bool, target: u32) {
                self.patches.push(Patch::B19 {
                    pos: self.buf.len(),
                    target,
                });
                self.ins(if nonzero { 0x3500_0000 } else { 0x3400_0000 } | rt);
            }

            /// `cbz wt` to the shared reject stub.
            fn cbz_reject(&mut self, rt: u32) {
                self.patches.push(Patch::Reject {
                    pos: self.buf.len(),
                });
                self.ins(0x3400_0000 | rt);
            }

            /// `mov w0, #verdict; add sp, sp, #frame; ret`.
            fn epilogue(&mut self, verdict: u16) {
                self.movz(0, verdict);
                if self.frame > 0 {
                    let frame = self.frame;
                    self.ins(0x9100_0000 | (frame << 10) | (31 << 5) | 31);
                }
                self.ins(0xD65F_03C0);
            }
        }

        pub(in super::super) fn emit(code: &[TOp], reg_count: usize) -> Option<Vec<u8>> {
            let frame = ((2 * reg_count as u32) + 15) & !15;
            let mut a = Asm {
                buf: Vec::with_capacity(code.len() * 24 + 64),
                patches: Vec::new(),
                frame,
            };

            if frame > 0 {
                a.ins(0xD100_0000 | (frame << 10) | (31 << 5) | 31); // sub sp, sp, #frame
                let mut off = 0;
                while off < 2 * reg_count as u32 {
                    a.ins(0xF900_0000 | ((off / 8) << 10) | (31 << 5) | 31); // str xzr, [sp, #off]
                    off += 8;
                }
            }

            let mut offsets = Vec::with_capacity(code.len());
            for op in code {
                offsets.push(a.buf.len());
                match *op {
                    TOp::Const { dst, value } => {
                        a.movz(8, value);
                        a.strh_sp(8, 2 * u32::from(dst));
                    }
                    TOp::LoadWord { dst, index } => {
                        a.load_packet_word(9, index);
                        a.strh_sp(9, 2 * u32::from(dst));
                    }
                    TOp::LoadInd { dst, index } => {
                        a.ldrh_sp(8, 2 * u32::from(index));
                        a.ins(0x531F_7800 | (8 << 5) | 8); // lsl w8, w8, #1
                        a.ins(0xEB00_001F | (1 << 16) | (8 << 5)); // cmp x8, x1
                        a.bcond_reject(HS); // OOB rejects
                        a.ins(0x7860_6800 | (8 << 16) | 9); // ldrh w9, [x0, x8]
                        a.ins(0x5AC0_0400 | (9 << 5) | 9); // rev16 w9, w9
                        a.strh_sp(9, 2 * u32::from(dst));
                    }
                    TOp::Bin {
                        op,
                        dst,
                        a: ra,
                        b: rb,
                    } => {
                        a.ldrh_sp(8, 2 * u32::from(ra));
                        a.ldrh_sp(9, 2 * u32::from(rb));
                        let cmp_cset = |a: &mut Asm, cond: u32| {
                            a.ins(0x6B00_001F | (9 << 16) | (8 << 5)); // cmp w8, w9
                            a.cset(8, cond);
                        };
                        match op {
                            IrBinOp::Eq => cmp_cset(&mut a, EQ),
                            IrBinOp::Neq => cmp_cset(&mut a, NE),
                            IrBinOp::Lt => cmp_cset(&mut a, LO),
                            IrBinOp::Le => cmp_cset(&mut a, LS),
                            IrBinOp::Gt => cmp_cset(&mut a, HI),
                            IrBinOp::Ge => cmp_cset(&mut a, HS),
                            IrBinOp::And => a.ins(0x0A00_0000 | (9 << 16) | (8 << 5) | 8),
                            IrBinOp::Or => a.ins(0x2A00_0000 | (9 << 16) | (8 << 5) | 8),
                            IrBinOp::Xor => a.ins(0x4A00_0000 | (9 << 16) | (8 << 5) | 8),
                            IrBinOp::Add => a.ins(0x0B00_0000 | (9 << 16) | (8 << 5) | 8),
                            IrBinOp::Sub => a.ins(0x4B00_0000 | (9 << 16) | (8 << 5) | 8),
                            IrBinOp::Mul => a.ins(0x1B00_7C00 | (9 << 16) | (8 << 5) | 8),
                            IrBinOp::Div => {
                                a.cbz_reject(9);
                                a.ins(0x1AC0_0800 | (9 << 16) | (8 << 5) | 8); // udiv w8, w8, w9
                            }
                            IrBinOp::Mod => {
                                a.cbz_reject(9);
                                a.ins(0x1AC0_0800 | (9 << 16) | (8 << 5) | 10); // udiv w10, w8, w9
                                a.ins(0x1B00_8000 | (9 << 16) | (8 << 10) | (10 << 5) | 8);
                                // msub w8, w10, w9, w8
                            }
                            IrBinOp::Lsh | IrBinOp::Rsh => {
                                a.ins(0x1200_0C00 | (9 << 5) | 9); // and w9, w9, #15
                                let shift = if op == IrBinOp::Lsh {
                                    0x1AC0_2000
                                } else {
                                    0x1AC0_2400
                                };
                                a.ins(shift | (9 << 16) | (8 << 5) | 8);
                            }
                        }
                        a.strh_sp(8, 2 * u32::from(dst));
                    }
                    TOp::Jump { target } => a.b(target),
                    TOp::BranchIf { cond, target } => {
                        a.ldrh_sp(8, 2 * u32::from(cond));
                        a.cbz(8, true, target);
                    }
                    TOp::BranchIfNot { cond, target } => {
                        a.ldrh_sp(8, 2 * u32::from(cond));
                        a.cbz(8, false, target);
                    }
                    TOp::GuardEqBr { word, lit, target } | TOp::GuardNeBr { word, lit, target } => {
                        a.load_packet_word(9, word);
                        a.movz(10, lit);
                        a.ins(0x6B00_001F | (10 << 16) | (9 << 5)); // cmp w9, w10
                        let cond = if matches!(op, TOp::GuardEqBr { .. }) {
                            EQ
                        } else {
                            NE
                        };
                        a.bcond(cond, target);
                    }
                    TOp::GuardInBr {
                        word,
                        lo,
                        hi,
                        target,
                    }
                    | TOp::GuardOutBr {
                        word,
                        lo,
                        hi,
                        target,
                    } => {
                        a.load_packet_word(9, word);
                        // Unsigned-span trick: v - lo <= hi - lo (as u32)
                        // iff lo <= v <= hi.
                        a.movz(10, lo);
                        a.ins(0x4B00_0000 | (10 << 16) | (9 << 5) | 9); // sub w9, w9, w10
                        a.movz(10, hi - lo);
                        a.ins(0x6B00_001F | (10 << 16) | (9 << 5)); // cmp w9, w10
                        let cond = if matches!(op, TOp::GuardInBr { .. }) {
                            LS
                        } else {
                            HI
                        };
                        a.bcond(cond, target);
                    }
                    TOp::Return { accept } => a.epilogue(u16::from(accept)),
                    TOp::ReturnReg { reg } => {
                        a.ldrh_sp(8, 2 * u32::from(reg));
                        a.ins(0x7100_001F | (8 << 5)); // cmp w8, #0
                        a.cset(0, NE);
                        if frame > 0 {
                            a.ins(0x9100_0000 | (frame << 10) | (31 << 5) | 31);
                        }
                        a.ins(0xD65F_03C0);
                    }
                }
            }

            let reject = a.buf.len();
            a.epilogue(0);

            for patch in std::mem::take(&mut a.patches) {
                let (pos, dest) = match patch {
                    Patch::B { pos, target } | Patch::B19 { pos, target } => {
                        (pos, offsets[target as usize])
                    }
                    Patch::Reject { pos } => (pos, reject),
                };
                let rel = (dest as i64 - pos as i64) / 4;
                let mut word = u32::from_le_bytes(a.buf[pos..pos + 4].try_into().unwrap());
                match patch {
                    Patch::B { .. } => {
                        if !(-(1 << 25)..(1 << 25)).contains(&rel) {
                            return None;
                        }
                        word |= (rel as u32) & 0x03FF_FFFF;
                    }
                    Patch::B19 { .. } | Patch::Reject { .. } => {
                        if !(-(1 << 18)..(1 << 18)).contains(&rel) {
                            return None;
                        }
                        word |= ((rel as u32) & 0x7_FFFF) << 5;
                    }
                }
                a.buf[pos..pos + 4].copy_from_slice(&word.to_le_bytes());
            }
            Some(a.buf)
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod native {
    use super::super::exec::TOp;
    use std::sync::Arc;

    /// Unsupported target: emission always refuses and every [`JitFilter`]
    /// runs the threaded-code fallback.
    pub(super) struct ExecBuf {
        never: std::convert::Infallible,
    }

    pub(super) fn compile(_code: &[TOp], _reg_count: usize) -> Option<Arc<ExecBuf>> {
        None
    }

    impl ExecBuf {
        pub(super) fn len(&self) -> usize {
            match self.never {}
        }

        /// # Safety
        ///
        /// Never constructed; never called.
        pub(super) unsafe fn call(&self, _bytes: &[u8]) -> bool {
            match self.never {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::interp::{CheckedInterpreter, Dialect, InterpConfig};
    use pf_filter::program::Assembler;
    use pf_filter::samples;
    use pf_filter::word::BinaryOp;

    fn native_expected() -> bool {
        cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))
    }

    #[test]
    fn fig_3_9_jits_and_matches_threaded() {
        let f = JitFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
        assert_eq!(f.is_jitted(), native_expected());
        let hit = samples::pup_packet_3mb(2, 0, 35, 1);
        let miss = samples::pup_packet_3mb(2, 0, 36, 1);
        assert!(f.eval(PacketView::new(&hit)));
        assert!(!f.eval(PacketView::new(&miss)));
    }

    #[test]
    fn forced_fallback_has_identical_verdicts() {
        let v = ValidatedProgram::new(samples::fig_3_9_pup_socket_35()).unwrap();
        let jit = JitFilter::from_validated(&v);
        let fallback = JitFilter::from_validated_forced_fallback(&v);
        assert!(!fallback.is_jitted());
        assert_eq!(fallback.native_code_len(), None);
        for pkt in [
            samples::pup_packet_3mb(2, 0, 35, 1),
            samples::pup_packet_3mb(2, 0, 36, 1),
            samples::pup_packet_3mb(3, 7, 35, 2),
            vec![0x11, 0x22],
            vec![],
        ] {
            let view = PacketView::new(&pkt);
            assert_eq!(jit.eval(view), fallback.eval(view));
        }
    }

    #[test]
    fn short_packets_fall_back_to_checked_semantics() {
        // COR accepts before the out-of-bounds load; the fallback keeps it.
        let p = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 0x1111)
            .pushword(40)
            .finish();
        let f = JitFilter::compile(p).unwrap();
        assert!(f.eval(PacketView::new(&[0x11, 0x11])));
    }

    #[test]
    fn odd_length_packets_agree_with_threaded_code() {
        let prog = samples::fig_3_9_pup_socket_35();
        let jit = JitFilter::compile(prog.clone()).unwrap();
        let ir = IrFilter::compile(prog).unwrap();
        let mut pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        pkt.push(0xAB); // odd length: trailing byte is the high half
        let view = PacketView::new(&pkt);
        assert_eq!(jit.eval(view), ir.eval(view));
        // And every odd-length truncation.
        for n in (1..pkt.len()).step_by(2) {
            let view = PacketView::new(&pkt[..n]);
            assert_eq!(jit.eval(view), ir.eval(view), "prefix {n}");
        }
    }

    #[test]
    fn extended_arithmetic_matches_checked_interpreter() {
        let cfg = InterpConfig {
            dialect: Dialect::Extended,
            ..InterpConfig::default()
        };
        let checked = CheckedInterpreter::new(cfg);
        for op in [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Mod,
            BinaryOp::Lsh,
            BinaryOp::Rsh,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
            BinaryOp::Xor,
        ] {
            // word0 <op> word1, verdict = (result != 0).
            let p = Assembler::new(0).pushword(0).pushword_op(1, op).finish();
            let f = JitFilter::compile_with_config(p.clone(), cfg).unwrap();
            assert_eq!(f.is_jitted(), native_expected(), "{op:?}");
            for words in [
                [0u16, 0],
                [1, 0],
                [0, 1],
                [7, 3],
                [3, 7],
                [0xFFFF, 2],
                [0x8000, 0x8000],
                [1234, 1234],
                [0xABCD, 0x11],
                [2, 0xFFFF],
            ] {
                let pkt = [words[0].to_be_bytes(), words[1].to_be_bytes()].concat();
                let view = PacketView::new(&pkt);
                assert_eq!(f.eval(view), checked.eval(&p, view), "{op:?} on {words:?}");
            }
        }
    }

    #[test]
    fn division_by_zero_rejects() {
        let cfg = InterpConfig {
            dialect: Dialect::Extended,
            ..InterpConfig::default()
        };
        for op in [BinaryOp::Div, BinaryOp::Mod] {
            let p = Assembler::new(0).pushword(0).pushlit_op(op, 0).finish();
            let f = JitFilter::compile_with_config(p, cfg).unwrap();
            assert!(!f.eval(PacketView::new(&[0x12, 0x34])), "{op:?}");
        }
    }

    #[test]
    fn empty_program_accepts_everything() {
        let f = JitFilter::compile(FilterProgram::empty(0)).unwrap();
        assert!(f.eval(PacketView::new(&[])));
        assert!(f.eval(PacketView::new(&[1, 2, 3, 4])));
    }

    #[test]
    fn clone_shares_the_native_buffer() {
        let f = JitFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
        let g = f.clone();
        assert_eq!(f.is_jitted(), g.is_jitted());
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        assert!(g.eval(PacketView::new(&pkt)));
    }

    #[test]
    fn rejects_exactly_what_validation_rejects() {
        use pf_filter::program::MAX_PROGRAM_WORDS;
        use pf_filter::word::{Instr, StackAction};
        let word = |action, op| Instr::new(action, op).encode();
        let bad_word = (0..=u16::MAX)
            .find(|&w| Instr::decode(w).is_none())
            .expect("some word is reserved");
        let classic = InterpConfig::default();
        let rejected = [
            vec![word(StackAction::NoPush, BinaryOp::Eq)],
            vec![bad_word],
            vec![word(StackAction::PushLit, BinaryOp::Nop)],
            vec![word(StackAction::PushOne, BinaryOp::Nop); 33],
            vec![
                word(StackAction::PushWord(0), BinaryOp::Nop),
                word(StackAction::PushWord(1), BinaryOp::Add),
            ],
            vec![word(StackAction::NoPush, BinaryOp::Nop); MAX_PROGRAM_WORDS + 1],
        ];
        for words in rejected {
            let p = FilterProgram::from_words(0, words);
            let verdict = ValidatedProgram::with_config(p.clone(), classic)
                .expect_err("validation rejects the program");
            assert_eq!(
                JitFilter::compile_with_config(p, classic).err(),
                Some(verdict)
            );
        }
    }
}
