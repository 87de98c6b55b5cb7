//! Batch trace decode: one pass over a dynamic trace producing flat
//! structure-of-arrays record buffers plus a statically decoded
//! instruction table, so simulator inner loops touch no `Op` methods,
//! no operand `flat_id` resolution, and no per-record PC arithmetic.
//!
//! `simulate_column` builds one [`DecodedTrace`] per trace and runs
//! every machine of the column over it, so the decode cost is paid once
//! per column.

use perfvec_isa::{OpClass, Program, Reg, Trace, CODE_BASE, INST_BYTES, MAX_DST, MAX_SRC};

/// Register scoreboard size: [`Reg::NUM_FLAT`] rounded up to a power of
/// two, so masked indexing (`& (REG_SLOTS - 1)`) provably stays in
/// bounds and the hot loops carry no bounds checks.
pub const REG_SLOTS: usize = Reg::NUM_FLAT.next_power_of_two();

/// Dummy operand slots in the spare `REG_SLOTS` range above
/// `Reg::NUM_FLAT` (80): decoded operand lists are padded with these so
/// the hot loops can read the first sources and write the first
/// destination unconditionally. The source dummy is never written and
/// the destination dummy is never read, so padding cannot create
/// dependencies.
pub const DUMMY_SRC: u8 = (REG_SLOTS - 2) as u8;
pub const DUMMY_DST: u8 = (REG_SLOTS - 1) as u8;

/// One statically decoded instruction: opcode predicates, class, and
/// operand flat ids resolved once per program instead of once per
/// dynamic record.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInst {
    /// Execution class (selects the functional-unit pool).
    pub class: OpClass,
    /// Load from memory.
    pub is_load: bool,
    /// Store to memory.
    pub is_store: bool,
    /// Load, store, or fence.
    pub is_mem: bool,
    /// Memory fence.
    pub is_barrier: bool,
    /// Any control-flow instruction.
    pub is_branch: bool,
    /// Conditional branch.
    pub is_cond_branch: bool,
    /// Indirect (register-target) branch.
    pub is_indirect_branch: bool,
    /// Number of valid entries in `srcs`.
    pub n_src: u8,
    /// Number of valid entries in `dsts`.
    pub n_dst: u8,
    /// `flat_id()` of each valid source register (fits: `Reg::NUM_FLAT`
    /// is 80), padded with [`DUMMY_SRC`].
    pub srcs: [u8; MAX_SRC],
    /// `flat_id()` of each valid destination register, padded with
    /// [`DUMMY_DST`].
    pub dsts: [u8; MAX_DST],
    /// Static branch target address (the predictor's taken-target key
    /// for conditional branches).
    pub static_target: u64,
}

/// Decode `program` into `out` (reusing its allocation).
pub fn decode_program(program: &Program, out: &mut Vec<DecodedInst>) {
    out.clear();
    out.reserve(program.insts.len());
    for inst in &program.insts {
        let mut srcs = [DUMMY_SRC; MAX_SRC];
        for (k, s) in inst.srcs().iter().enumerate() {
            srcs[k] = s.flat_id() as u8;
        }
        let mut dsts = [DUMMY_DST; MAX_DST];
        for (k, d) in inst.dsts().iter().enumerate() {
            dsts[k] = d.flat_id() as u8;
        }
        out.push(DecodedInst {
            class: inst.op.class(),
            is_load: inst.op.is_load(),
            is_store: inst.op.is_store(),
            is_mem: inst.op.is_mem(),
            is_barrier: inst.op.is_barrier(),
            is_branch: inst.op.is_branch(),
            is_cond_branch: inst.op.is_cond_branch(),
            is_indirect_branch: inst.op.is_indirect_branch(),
            n_src: inst.srcs().len() as u8,
            n_dst: inst.dsts().len() as u8,
            srcs,
            dsts,
            static_target: CODE_BASE + inst.target.unwrap_or(0) as u64 * INST_BYTES,
        });
    }
}

/// A fully pre-decoded dynamic trace: the static instruction table plus
/// per-record SoA columns (static index, fetch PC, data address, actual
/// next PC, branch direction). Built in one pass by
/// [`DecodedTrace::build`]; the buffers are reusable across traces, so
/// a thread-resident instance never reallocates at steady state.
#[derive(Debug, Default)]
pub struct DecodedTrace {
    /// Statically decoded program, indexed by `sidx`.
    pub insts: Vec<DecodedInst>,
    /// Per record: static instruction index.
    pub sidx: Vec<u32>,
    /// Per record: fetch PC.
    pub pc: Vec<u64>,
    /// Per record: effective data address (memory ops; 0 otherwise).
    pub addr: Vec<u64>,
    /// Per record: the following record's fetch PC (the branch's actual
    /// target when taken).
    pub next_pc: Vec<u64>,
    /// Per record: branch taken.
    pub taken: Vec<bool>,
}

impl DecodedTrace {
    /// Decode `trace` into a fresh buffer.
    pub fn from_trace(trace: &Trace) -> DecodedTrace {
        let mut dt = DecodedTrace::default();
        dt.build(trace);
        dt
    }

    /// Decode `trace`, reusing this buffer's allocations.
    pub fn build(&mut self, trace: &Trace) {
        decode_program(&trace.program, &mut self.insts);
        // One `extend` per column instead of one multi-column loop:
        // each is a trusted-length iterator over the record slice, so
        // there is no per-record capacity check and each pass
        // vectorizes — this runs once per (workload, machine) on the
        // per-cell path, so its cost is a direct tax on `simulate`.
        let recs = &trace.records[..];
        self.sidx.clear();
        self.sidx.extend(recs.iter().map(|r| r.sidx));
        self.pc.clear();
        self.pc.extend(recs.iter().map(|r| r.pc()));
        self.addr.clear();
        self.addr.extend(recs.iter().map(|r| r.addr));
        self.next_pc.clear();
        self.next_pc.extend(recs.iter().map(|r| r.next_pc()));
        self.taken.clear();
        self.taken.extend(recs.iter().map(|r| r.taken));
    }

    /// Number of decoded records.
    pub fn len(&self) -> usize {
        self.sidx.len()
    }

    /// True when no records are decoded.
    pub fn is_empty(&self) -> bool {
        self.sidx.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_isa::{Emulator, ProgramBuilder, Reg};

    fn small_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(64);
        b.li(Reg::x(1), buf as i64);
        b.li(Reg::x(2), 0);
        let top = b.label();
        b.st(Reg::x(2), Reg::x(1), 0, 8);
        b.ld(Reg::x(3), Reg::x(1), 0, 8);
        b.addi(Reg::x(2), Reg::x(2), 1);
        b.blt_imm(Reg::x(2), 20, top);
        b.halt();
        let p = b.build();
        Emulator::new(&p).run(10_000).unwrap()
    }

    #[test]
    fn columns_mirror_the_records() {
        let t = small_trace();
        let dt = DecodedTrace::from_trace(&t);
        assert_eq!(dt.len(), t.len());
        assert_eq!(dt.insts.len(), t.program.insts.len());
        for (i, rec) in t.records.iter().enumerate() {
            assert_eq!(dt.sidx[i], rec.sidx);
            assert_eq!(dt.pc[i], rec.pc());
            assert_eq!(dt.addr[i], rec.addr);
            assert_eq!(dt.next_pc[i], rec.next_pc());
            assert_eq!(dt.taken[i], rec.taken);
        }
    }

    #[test]
    fn decoded_insts_match_op_predicates() {
        let t = small_trace();
        let dt = DecodedTrace::from_trace(&t);
        for (d, inst) in dt.insts.iter().zip(&t.program.insts) {
            assert_eq!(d.class, inst.op.class());
            assert_eq!(d.is_load, inst.op.is_load());
            assert_eq!(d.is_store, inst.op.is_store());
            assert_eq!(d.is_branch, inst.op.is_branch());
            assert_eq!(d.n_src as usize, inst.srcs().len());
            assert_eq!(d.n_dst as usize, inst.dsts().len());
            for (k, s) in inst.srcs().iter().enumerate() {
                assert_eq!(d.srcs[k], s.flat_id() as u8);
            }
            for k in inst.srcs().len()..MAX_SRC {
                assert_eq!(d.srcs[k], DUMMY_SRC);
            }
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_decode() {
        let t = small_trace();
        let mut dt = DecodedTrace::from_trace(&t);
        dt.build(&t);
        let fresh = DecodedTrace::from_trace(&t);
        assert_eq!(dt.sidx, fresh.sidx);
        assert_eq!(dt.pc, fresh.pc);
        assert_eq!(dt.addr, fresh.addr);
        assert_eq!(dt.next_pc, fresh.next_pc);
        assert_eq!(dt.taken, fresh.taken);
    }

    #[test]
    fn dummy_slots_sit_above_the_real_registers() {
        const { assert!(REG_SLOTS >= Reg::NUM_FLAT) }
        assert!((DUMMY_SRC as usize) >= Reg::NUM_FLAT);
        assert!((DUMMY_DST as usize) >= Reg::NUM_FLAT);
        assert_ne!(DUMMY_SRC, DUMMY_DST);
    }
}
