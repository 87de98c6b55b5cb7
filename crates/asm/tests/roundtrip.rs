//! Round-trip property: `Program → disassemble → parse → encode` is
//! bit-identical, over random valid programs and over every built-in
//! suite workload.

use perfvec_asm::{assemble, disassemble};
use perfvec_isa::{DataSegment, Inst, MemRef, Op, Program, Reg, DATA_BASE};
use proptest::prelude::*;

/// Deterministic splitmix-style generator, so each case is reproducible
/// from its seed alone.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn xr(&mut self) -> Reg {
        Reg::x(self.below(32) as u8)
    }

    fn fr(&mut self) -> Reg {
        Reg::f(self.below(32) as u8)
    }

    fn vr(&mut self) -> Reg {
        Reg::v(self.below(16) as u8)
    }

    fn mem(&mut self, sizes: &[u8]) -> MemRef {
        let size = sizes[self.below(sizes.len() as u64) as usize];
        let offset = self.next() as i64 % 4096;
        let base = self.xr();
        if self.below(2) == 0 {
            MemRef::base_offset(base, offset, size)
        } else {
            let scale = [1u8, 2, 4, 8, 16][self.below(5) as usize];
            MemRef::indexed(base, self.xr(), scale, offset, size)
        }
    }
}

/// One random instruction whose operands follow the builder conventions
/// (mem base/index appended to sources by `with_mem`); branch targets
/// land in `0..=n_insts`.
fn random_inst(g: &mut Gen, n_insts: u64) -> Inst {
    match g.below(17) {
        0 => {
            let op = [
                Op::Add,
                Op::Sub,
                Op::And,
                Op::Or,
                Op::Xor,
                Op::Shl,
                Op::Shr,
                Op::Sra,
                Op::Slt,
                Op::Sltu,
                Op::Mul,
                Op::Div,
                Op::Rem,
            ][g.below(13) as usize];
            let i = Inst::new(op).with_dst(g.xr()).with_src(g.xr());
            if g.below(2) == 0 {
                i.with_src(g.xr())
            } else {
                i.with_imm(g.next() as i64)
            }
        }
        1 => {
            // li into x or f (raw bits).
            let d = if g.below(2) == 0 { g.xr() } else { g.fr() };
            Inst::new(Op::Li).with_dst(d).with_imm(g.next() as i64)
        }
        2 => Inst::new(Op::Mov).with_dst(g.xr()).with_src(g.xr()),
        3 => {
            let op =
                [Op::Fadd, Op::Fsub, Op::Fmul, Op::Fdiv, Op::Fmin, Op::Fmax][g.below(6) as usize];
            Inst::new(op)
                .with_dst(g.fr())
                .with_src(g.fr())
                .with_src(g.fr())
        }
        4 => {
            let op = [Op::Fsqrt, Op::Fneg, Op::Fmov][g.below(3) as usize];
            Inst::new(op).with_dst(g.fr()).with_src(g.fr())
        }
        5 => Inst::new(Op::Fmadd)
            .with_dst(g.fr())
            .with_src(g.fr())
            .with_src(g.fr())
            .with_src(g.fr()),
        6 => Inst::new(Op::Fclt)
            .with_dst(g.xr())
            .with_src(g.fr())
            .with_src(g.fr()),
        7 => {
            if g.below(2) == 0 {
                Inst::new(Op::Icvtf).with_dst(g.fr()).with_src(g.xr())
            } else {
                Inst::new(Op::Fcvti).with_dst(g.xr()).with_src(g.fr())
            }
        }
        8 => {
            let op = [Op::Vadd, Op::Vmul][g.below(2) as usize];
            Inst::new(op)
                .with_dst(g.vr())
                .with_src(g.vr())
                .with_src(g.vr())
        }
        9 => Inst::new(Op::Vfma)
            .with_dst(g.vr())
            .with_src(g.vr())
            .with_src(g.vr())
            .with_src(g.vr()),
        10 => {
            if g.below(2) == 0 {
                Inst::new(Op::Vsplat).with_dst(g.vr()).with_src(g.fr())
            } else {
                Inst::new(Op::Vredsum).with_dst(g.fr()).with_src(g.vr())
            }
        }
        11 => {
            let m = g.mem(&[1, 2, 4, 8]);
            if g.below(2) == 0 {
                Inst::new(Op::Ld).with_dst(g.xr()).with_mem(m)
            } else {
                Inst::new(Op::St).with_src(g.xr()).with_mem(m)
            }
        }
        12 => {
            let m = g.mem(&[4, 8]);
            if g.below(2) == 0 {
                Inst::new(Op::Fld).with_dst(g.fr()).with_mem(m)
            } else {
                Inst::new(Op::Fst).with_src(g.fr()).with_mem(m)
            }
        }
        13 => {
            let m = g.mem(&[16]);
            if g.below(2) == 0 {
                Inst::new(Op::Vld).with_dst(g.vr()).with_mem(m)
            } else {
                Inst::new(Op::Vst).with_src(g.vr()).with_mem(m)
            }
        }
        14 => {
            let op = [Op::Beq, Op::Bne, Op::Blt, Op::Bge][g.below(4) as usize];
            let i = Inst::new(op).with_src(g.xr());
            let i = if g.below(2) == 0 {
                i.with_src(g.xr())
            } else {
                i.with_imm(g.next() as i64 % 1000)
            };
            i.with_target(g.below(n_insts + 1) as u32)
        }
        15 => {
            let t = g.below(n_insts + 1) as u32;
            match g.below(3) {
                0 => Inst::new(Op::J).with_target(t),
                1 => Inst::new(Op::Jal).with_dst(Reg::LINK).with_target(t),
                _ => Inst::new(Op::Jal).with_dst(g.xr()).with_target(t),
            }
        }
        _ => match g.below(4) {
            0 => Inst::new(Op::Jr).with_src(g.xr()),
            1 => Inst::new(Op::Fence),
            2 => Inst::new(Op::Nop),
            _ => Inst::new(Op::Halt),
        },
    }
}

fn random_program(seed: u64) -> Program {
    let mut g = Gen(seed);
    let n = 1 + g.below(48);
    let insts: Vec<Inst> = (0..n).map(|_| random_inst(&mut g, n)).collect();
    let n_segs = g.below(3);
    let data: Vec<DataSegment> = (0..n_segs)
        .map(|k| {
            let len = 1 + g.below(40) as usize;
            DataSegment {
                addr: DATA_BASE + k * 4096 + g.below(64),
                bytes: (0..len).map(|_| g.next() as u8).collect(),
            }
        })
        .collect();
    // Name exercises string escaping now and then.
    let name = if g.below(4) == 0 {
        format!("prop \"{seed}\" \\ case")
    } else {
        format!("prop-{seed}")
    };
    Program {
        name,
        insts,
        data,
        entry: g.below(n) as u32,
    }
}

fn assert_roundtrip(p: &Program) {
    let text = disassemble(p);
    let back = assemble(&text, "fallback")
        .unwrap_or_else(|e| panic!("reassembly failed: {e}\n--- canonical text ---\n{text}"));
    assert_eq!(back.program.insts, p.insts, "insts differ\n{text}");
    assert_eq!(back.program.data, p.data, "data differs\n{text}");
    assert_eq!(back.program.entry, p.entry, "entry differs\n{text}");
    assert_eq!(back.program.name, p.name, "name differs\n{text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_programs_roundtrip(seed in 0u64..u64::MAX) {
        assert_roundtrip(&random_program(seed));
    }
}

#[test]
fn every_builtin_workload_roundtrips() {
    for w in perfvec_workloads::suite() {
        let p = w.program();
        assert_roundtrip(&p);
    }
}

#[test]
fn disassembly_is_deterministic() {
    let p = random_program(42);
    assert_eq!(disassemble(&p), disassemble(&p));
}
