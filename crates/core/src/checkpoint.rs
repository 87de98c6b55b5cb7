//! Foundation-model checkpoints.
//!
//! The paper's adoption story is that users consume a *pre-trained*
//! foundation model the way LLM users consume weights — without paying
//! training cost. This module serializes a trained foundation (and
//! optionally its microarchitecture table) to a compact binary file and
//! restores it exactly.
//!
//! It also carries the **training snapshot** format
//! ([`TrainSnapshot`]): a mid-run epoch checkpoint — model + table (as
//! an embedded foundation checkpoint) plus Adam moments, RNG state, and
//! best-so-far tracking — from which `trainer::train_foundation`
//! resumes a long run bit-identically.

use crate::foundation::{ArchKind, ArchSpec, Foundation};
use crate::march_table::MarchTable;
use bytesless::{get_f32s, put_f32s};
use perfvec_ml::seq::SeqModel;

const MAGIC: u32 = 0x5046_4d31; // "PFM1"
const SNAP_MAGIC: u32 = 0x5046_5331; // "PFS1"

/// Errors while reading a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Wrong magic/version, unknown architecture tag, or a shape field
    /// outside the sane range (a corrupt header must never be allowed
    /// to drive allocations).
    BadHeader,
    /// Payload ended early or sizes disagree.
    Truncated,
    /// Bytes remain after a complete checkpoint — the file is not a
    /// checkpoint (or was corrupted by concatenation/append).
    Trailing,
    /// A model parameter or table entry is NaN or infinite, or a
    /// snapshot's Adam moment or best parameter is (or its second
    /// moment is negative): training never produces one, and it would
    /// poison every prediction or every resumed step.
    NonFinite,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "bad checkpoint header"),
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
            CheckpointError::Trailing => write!(f, "trailing bytes after checkpoint"),
            CheckpointError::NonFinite => write!(f, "non-finite value in checkpoint"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// A tiny little-endian encoder kept local to this module to avoid
// dragging a serialization framework through the hot path.
mod bytesless {
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
        put_u32(buf, vs.len() as u32);
        for v in vs {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    pub fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
        put_u32(buf, vs.len() as u32);
        for v in vs {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    pub fn get_u32(buf: &[u8], off: &mut usize) -> Option<u32> {
        let v = u32::from_le_bytes(buf.get(*off..*off + 4)?.try_into().ok()?);
        *off += 4;
        Some(v)
    }
    pub fn get_u64(buf: &[u8], off: &mut usize) -> Option<u64> {
        let v = u64::from_le_bytes(buf.get(*off..*off + 8)?.try_into().ok()?);
        *off += 8;
        Some(v)
    }
    pub fn get_f32s(buf: &[u8], off: &mut usize) -> Option<Vec<f32>> {
        let n = get_u32(buf, off)? as usize;
        // A truncated or corrupt length prefix must fail cleanly, not
        // drive a multi-gigabyte allocation: the payload cannot be
        // longer than the bytes actually present.
        if n.checked_mul(4)? > buf.len().saturating_sub(*off) {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let v = f32::from_le_bytes(buf.get(*off..*off + 4)?.try_into().ok()?);
            *off += 4;
            out.push(v);
        }
        Some(out)
    }
    pub fn get_f64s(buf: &[u8], off: &mut usize) -> Option<Vec<f64>> {
        let n = get_u32(buf, off)? as usize;
        if n.checked_mul(8)? > buf.len().saturating_sub(*off) {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let v = f64::from_le_bytes(buf.get(*off..*off + 8)?.try_into().ok()?);
            *off += 8;
            out.push(v);
        }
        Some(out)
    }
}

/// Shape sanity bounds: a header whose layer count, dimensionality, or
/// context exceeds these is corrupt (the caps sit far above anything
/// the paper or this reproduction instantiates), and rejecting it early
/// keeps attacker-controlled headers from sizing model allocations.
const MAX_LAYERS: usize = 64;
/// See [`MAX_LAYERS`].
const MAX_DIM: usize = 1 << 16;
/// See [`MAX_LAYERS`].
const MAX_CONTEXT: usize = 1 << 24;

/// Conservative lower bound on a spec's parameter count, computed
/// without building the model. Decoding compares it against the
/// payload's actual length *before* instantiating anything, so a
/// small corrupt file can never amplify into a model-sized allocation:
/// any spec that passes has a parameter count of the same order as the
/// file itself, and the exact count is still verified after the build.
fn param_count_lower_bound(spec: &ArchSpec, window: usize) -> usize {
    use perfvec_trace::NUM_FEATURES;
    let d = spec.dim;
    match spec.kind {
        // First layer alone holds at least window * features * d weights.
        ArchKind::Linear | ArchKind::Mlp => window.saturating_mul(NUM_FEATURES).saturating_mul(d),
        // Each recurrent/attention layer holds at least d x d weights.
        ArchKind::Lstm => spec.layers.saturating_mul(4 * d).saturating_mul(d),
        ArchKind::Gru => spec.layers.saturating_mul(3 * d).saturating_mul(d),
        // Two stacks of hidden size d/2: each W_hh alone is 4(d/2)^2.
        ArchKind::BiLstm => (2 * d).saturating_mul(d),
        ArchKind::Transformer => spec.layers.saturating_mul(4 * d).saturating_mul(d),
    }
}

fn kind_tag(kind: ArchKind) -> u32 {
    match kind {
        ArchKind::Linear => 0,
        ArchKind::Mlp => 1,
        ArchKind::Lstm => 2,
        ArchKind::BiLstm => 3,
        ArchKind::Gru => 4,
        ArchKind::Transformer => 5,
    }
}

fn tag_kind(tag: u32) -> Option<ArchKind> {
    Some(match tag {
        0 => ArchKind::Linear,
        1 => ArchKind::Mlp,
        2 => ArchKind::Lstm,
        3 => ArchKind::BiLstm,
        4 => ArchKind::Gru,
        5 => ArchKind::Transformer,
        _ => return None,
    })
}

/// Serialize a foundation model (+ optional table) into bytes.
pub fn encode(f: &Foundation, spec: ArchSpec, table: Option<&MarchTable>) -> Vec<u8> {
    let mut buf = Vec::new();
    bytesless::put_u32(&mut buf, MAGIC);
    bytesless::put_u32(&mut buf, kind_tag(spec.kind));
    bytesless::put_u32(&mut buf, spec.layers as u32);
    bytesless::put_u32(&mut buf, spec.dim as u32);
    bytesless::put_u32(&mut buf, f.context as u32);
    bytesless::put_u32(&mut buf, f.target_scale.to_bits());
    put_f32s(&mut buf, &f.model.get_params());
    match table {
        Some(t) => {
            bytesless::put_u32(&mut buf, t.k as u32);
            put_f32s(&mut buf, &t.reps);
        }
        None => bytesless::put_u32(&mut buf, 0),
    }
    buf
}

/// Restore a foundation model (and table, if present) from bytes.
///
/// Hardened the way `perfvec_trace::binio` is: every truncated prefix
/// of a valid checkpoint fails with a clean [`CheckpointError`] (never
/// a panic or an unbounded allocation), and bytes left over after a
/// complete checkpoint are rejected as [`CheckpointError::Trailing`].
pub fn decode(buf: &[u8]) -> Result<(Foundation, ArchSpec, Option<MarchTable>), CheckpointError> {
    let mut off = 0usize;
    let magic = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    if magic != MAGIC {
        return Err(CheckpointError::BadHeader);
    }
    let kind = tag_kind(bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)?)
        .ok_or(CheckpointError::BadHeader)?;
    let layers = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)? as usize;
    let dim = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)? as usize;
    let context = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)? as usize;
    if layers == 0 || layers > MAX_LAYERS || dim == 0 || dim > MAX_DIM || context > MAX_CONTEXT {
        return Err(CheckpointError::BadHeader);
    }
    // A width no head count divides cannot be built.
    if kind == ArchKind::Transformer && SeqModel::transformer_heads(dim).is_none() {
        return Err(CheckpointError::BadHeader);
    }
    let target_scale =
        f32::from_bits(bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)?);
    // Training always produces a positive finite scale; anything else
    // is corruption and would turn every prediction into NaN/Inf.
    if !target_scale.is_finite() || target_scale <= 0.0 {
        return Err(CheckpointError::BadHeader);
    }
    let params = get_f32s(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    let spec = ArchSpec { kind, layers, dim };
    if param_count_lower_bound(&spec, context + 1) > params.len() {
        return Err(CheckpointError::Truncated);
    }
    let mut foundation = Foundation::new(spec, context, target_scale, 0);
    if params.len() != foundation.model.num_params() {
        return Err(CheckpointError::Truncated);
    }
    if !params.iter().all(|v| v.is_finite()) {
        return Err(CheckpointError::NonFinite);
    }
    foundation.model.set_params(&params);
    let k = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)? as usize;
    let table = if k > 0 {
        let reps = get_f32s(buf, &mut off).ok_or(CheckpointError::Truncated)?;
        if reps.len() != k * dim {
            return Err(CheckpointError::Truncated);
        }
        if !reps.iter().all(|v| v.is_finite()) {
            return Err(CheckpointError::NonFinite);
        }
        Some(MarchTable::from_rows(k, dim, reps))
    } else {
        None
    };
    if off != buf.len() {
        return Err(CheckpointError::Trailing);
    }
    Ok((foundation, spec, table))
}

/// Save to a file.
pub fn save(
    f: &Foundation,
    spec: ArchSpec,
    table: Option<&MarchTable>,
    path: &std::path::Path,
) -> std::io::Result<()> {
    std::fs::write(path, encode(f, spec, table))
}

/// Load from a file.
pub fn load(path: &std::path::Path) -> std::io::Result<(Foundation, ArchSpec, Option<MarchTable>)> {
    let buf = std::fs::read(path)?;
    decode(&buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// A resumable mid-training state: everything `train_foundation` needs
/// to continue a run bit-identically from the end of an epoch.
///
/// The model + table travel as an embedded foundation checkpoint (the
/// same bytes [`encode`] produces, with the table rows still in their
/// *training-time* normalization — scale baking happens only at the end
/// of a run), alongside the optimizer moments, the sampling RNG state,
/// and the best-validation tracking that drives model selection.
pub struct TrainSnapshot {
    /// Restored foundation (current, not best, parameters).
    pub foundation: Foundation,
    /// Architecture of the embedded checkpoint.
    pub spec: ArchSpec,
    /// Current (unbaked) microarchitecture table.
    pub table: MarchTable,
    /// First epoch the resumed run should execute.
    pub next_epoch: u32,
    /// Adam first moments over `[model params | table rows]`.
    pub adam_m: Vec<f32>,
    /// Adam second moments.
    pub adam_v: Vec<f32>,
    /// Adam step counter.
    pub adam_t: u64,
    /// Sampling RNG state at the snapshot point.
    pub rng_state: [u64; 4],
    /// Best validation loss seen so far.
    pub best_val: f64,
    /// Parameters of the best epoch so far (`[model | table]`).
    pub best_params: Vec<f32>,
    /// Epoch index of `best_params`.
    pub best_epoch: u32,
    /// Per-epoch training losses so far.
    pub train_loss: Vec<f64>,
    /// Per-epoch validation losses so far.
    pub val_loss: Vec<f64>,
}

/// Serialize a training snapshot.
pub fn encode_snapshot(s: &TrainSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    bytesless::put_u32(&mut buf, SNAP_MAGIC);
    let inner = encode(&s.foundation, s.spec, Some(&s.table));
    bytesless::put_u32(&mut buf, inner.len() as u32);
    buf.extend_from_slice(&inner);
    bytesless::put_u32(&mut buf, s.next_epoch);
    bytesless::put_u32(&mut buf, s.best_epoch);
    bytesless::put_u64(&mut buf, s.adam_t);
    for w in s.rng_state {
        bytesless::put_u64(&mut buf, w);
    }
    bytesless::put_u64(&mut buf, s.best_val.to_bits());
    bytesless::put_f32s(&mut buf, &s.adam_m);
    bytesless::put_f32s(&mut buf, &s.adam_v);
    bytesless::put_f32s(&mut buf, &s.best_params);
    bytesless::put_f64s(&mut buf, &s.train_loss);
    bytesless::put_f64s(&mut buf, &s.val_loss);
    buf
}

/// Restore a training snapshot, with the same hardening contract as
/// [`decode`]: every truncated prefix fails cleanly, trailing bytes are
/// rejected, and corrupt length prefixes cannot drive allocations past
/// the file's own size.
pub fn decode_snapshot(buf: &[u8]) -> Result<TrainSnapshot, CheckpointError> {
    let mut off = 0usize;
    let magic = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    if magic != SNAP_MAGIC {
        return Err(CheckpointError::BadHeader);
    }
    let inner_len = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)? as usize;
    if inner_len > buf.len().saturating_sub(off) {
        return Err(CheckpointError::Truncated);
    }
    let (foundation, spec, table) = decode(&buf[off..off + inner_len])?;
    let table = table.ok_or(CheckpointError::Truncated)?;
    off += inner_len;
    let next_epoch = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    let best_epoch = bytesless::get_u32(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    let adam_t = bytesless::get_u64(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    let mut rng_state = [0u64; 4];
    for w in &mut rng_state {
        *w = bytesless::get_u64(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    }
    let best_val =
        f64::from_bits(bytesless::get_u64(buf, &mut off).ok_or(CheckpointError::Truncated)?);
    let adam_m = get_f32s(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    let adam_v = get_f32s(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    let best_params = get_f32s(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    let train_loss = bytesless::get_f64s(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    let val_loss = bytesless::get_f64s(buf, &mut off).ok_or(CheckpointError::Truncated)?;
    if off != buf.len() {
        return Err(CheckpointError::Trailing);
    }
    let total = foundation.model.num_params() + table.num_params();
    if adam_m.len() != total || adam_v.len() != total || best_params.len() != total {
        return Err(CheckpointError::Truncated);
    }
    // A poisoned moment would turn the first resumed step into NaN, and
    // a negative second moment into the square root of one.
    let finite = |v: &[f32]| v.iter().all(|x| x.is_finite());
    let negative_v = adam_v.iter().any(|&v| v < 0.0);
    if !finite(&adam_m) || !finite(&adam_v) || !finite(&best_params) || negative_v {
        return Err(CheckpointError::NonFinite);
    }
    Ok(TrainSnapshot {
        foundation,
        spec,
        table,
        next_epoch,
        adam_m,
        adam_v,
        adam_t,
        rng_state,
        best_val,
        best_params,
        best_epoch,
        train_loss,
        val_loss,
    })
}

/// Save a snapshot atomically (write to a sibling temp file, then
/// rename): a crash mid-write can never leave a torn snapshot at the
/// published path.
pub fn save_snapshot(s: &TrainSnapshot, path: &std::path::Path) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, encode_snapshot(s))?;
    std::fs::rename(&tmp, path)
}

/// Load a snapshot from a file.
pub fn load_snapshot(path: &std::path::Path) -> std::io::Result<TrainSnapshot> {
    let buf = std::fs::read(path)?;
    decode_snapshot(&buf)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_trace::features::Matrix;
    use perfvec_trace::NUM_FEATURES;

    fn sample_foundation(kind: ArchKind) -> (Foundation, ArchSpec) {
        let spec = ArchSpec {
            kind,
            layers: 2,
            dim: 8,
        };
        (Foundation::new(spec, 4, 0.5, 42), spec)
    }

    #[test]
    fn roundtrip_preserves_predictions_for_every_architecture() {
        let mut feats = Matrix::zeros(20, NUM_FEATURES);
        for i in 0..20 {
            feats.row_mut(i)[i % 11] = 0.7;
        }
        for kind in [
            ArchKind::Linear,
            ArchKind::Mlp,
            ArchKind::Lstm,
            ArchKind::BiLstm,
            ArchKind::Gru,
            ArchKind::Transformer,
        ] {
            let (f, spec) = sample_foundation(kind);
            let table = MarchTable::new(3, 8, 9);
            let bytes = encode(&f, spec, Some(&table));
            let (f2, spec2, table2) = decode(&bytes).unwrap();
            assert_eq!(spec, spec2);
            assert_eq!(table2.as_ref().unwrap().reps, table.reps);
            assert_eq!(f2.context, f.context);
            assert_eq!(f2.target_scale, f.target_scale);
            // identical representations after restore
            assert_eq!(f.repr_at(&feats, 10), f2.repr_at(&feats, 10), "{kind:?}");
        }
    }

    #[test]
    fn table_is_optional() {
        let (f, spec) = sample_foundation(ArchKind::Lstm);
        let (f2, _, table) = decode(&encode(&f, spec, None)).unwrap();
        assert!(table.is_none());
        assert_eq!(f2.model.num_params(), f.model.num_params());
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let (f, spec) = sample_foundation(ArchKind::Lstm);
        let mut bytes = encode(&f, spec, None);
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(CheckpointError::BadHeader)));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let (f, spec) = sample_foundation(ArchKind::Gru);
        let bytes = encode(&f, spec, None);
        assert!(matches!(
            decode(&bytes[..bytes.len() - 3]),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn every_truncated_prefix_fails_cleanly() {
        // The binio hardening contract, applied to checkpoints: no
        // prefix of a valid encoding may decode, panic, or allocate its
        // way to an abort — each must return a clean error.
        let table = MarchTable::new(3, 8, 9);
        for (kind, with_table) in [
            (ArchKind::Lstm, true),
            (ArchKind::Gru, false),
            (ArchKind::Transformer, true),
        ] {
            let (f, spec) = sample_foundation(kind);
            let bytes = encode(&f, spec, with_table.then_some(&table));
            assert!(decode(&bytes).is_ok());
            for cut in 0..bytes.len() {
                let err = decode(&bytes[..cut]).err();
                assert!(
                    matches!(
                        err,
                        Some(CheckpointError::Truncated | CheckpointError::BadHeader)
                    ),
                    "{kind:?} prefix of {cut}/{} bytes gave {err:?}",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let table = MarchTable::new(3, 8, 9);
        for table_opt in [None, Some(&table)] {
            let (f, spec) = sample_foundation(ArchKind::Lstm);
            let mut bytes = encode(&f, spec, table_opt);
            bytes.push(0);
            assert!(matches!(decode(&bytes), Err(CheckpointError::Trailing)));
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_drive_huge_allocations() {
        // Overwrite the parameter-count prefix with u32::MAX: decode
        // must fail with Truncated without attempting a 16 GiB Vec.
        let (f, spec) = sample_foundation(ArchKind::Lstm);
        let mut bytes = encode(&f, spec, None);
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CheckpointError::Truncated)));
    }

    #[test]
    fn corrupt_target_scale_is_rejected() {
        let (f, spec) = sample_foundation(ArchKind::Lstm);
        let valid = encode(&f, spec, None);
        // target_scale sits at bytes 20..24.
        for bits in [
            f32::NAN.to_bits(),
            f32::INFINITY.to_bits(),
            0u32,
            (-1.0f32).to_bits(),
        ] {
            let mut bytes = valid.clone();
            bytes[20..24].copy_from_slice(&bits.to_le_bytes());
            assert!(
                matches!(decode(&bytes), Err(CheckpointError::BadHeader)),
                "bits {bits:#x}"
            );
        }
    }

    #[test]
    fn non_finite_parameters_and_table_rows_are_rejected() {
        let (f, spec) = sample_foundation(ArchKind::Lstm);
        let table = MarchTable::new(3, 8, 9);
        let valid = encode(&f, spec, Some(&table));
        let n_params = f.model.num_params();
        // Parameters start after the 24-byte header and their 4-byte
        // length prefix; the table rows after the parameters, k, and
        // the rows' own length prefix.
        let first_param = 28;
        let last_row = valid.len() - 4;
        assert_eq!(
            first_param + 4 * n_params + 8 + 4 * table.reps.len(),
            valid.len()
        );
        for off in [first_param, first_param + 4 * (n_params - 1), last_row] {
            for bits in [f32::NAN.to_bits(), f32::NEG_INFINITY.to_bits()] {
                let mut bytes = valid.clone();
                bytes[off..off + 4].copy_from_slice(&bits.to_le_bytes());
                assert_eq!(
                    decode(&bytes).err(),
                    Some(CheckpointError::NonFinite),
                    "offset {off} bits {bits:#x}"
                );
            }
        }
    }

    #[test]
    fn absurd_shape_headers_are_rejected_before_model_construction() {
        let (f, spec) = sample_foundation(ArchKind::Lstm);
        let valid = encode(&f, spec, None);
        // layers field (offset 8) and dim field (offset 12)
        for (off, v) in [(8usize, u32::MAX), (8, 0), (12, u32::MAX), (12, 0)] {
            let mut bytes = valid.clone();
            bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
            assert!(
                matches!(decode(&bytes), Err(CheckpointError::BadHeader)),
                "offset {off}"
            );
        }
        // A plausible-looking dim with far too few parameter bytes must
        // be caught by the lower-bound check, not by building the model.
        let mut bytes = valid;
        bytes[12..16].copy_from_slice(&1024u32.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CheckpointError::Truncated)));
        // A Transformer width no head count divides (an odd one) would
        // panic the model build; the header is rejected first, also
        // inside a snapshot.
        let spec = ArchSpec {
            kind: ArchKind::Transformer,
            layers: 1,
            dim: 8,
        };
        let f = Foundation::new(spec, 4, 0.5, 42);
        let valid = encode(&f, spec, None);
        let mut snap = sample_snapshot();
        (snap.foundation, snap.spec, snap.table) = (f, spec, MarchTable::new(3, 8, 9));
        let total = snap.foundation.model.num_params() + snap.table.num_params();
        snap.adam_m = vec![0.0; total];
        snap.adam_v = vec![0.0; total];
        snap.best_params = vec![0.0; total];
        let valid_snap = encode_snapshot(&snap);
        assert!(decode_snapshot(&valid_snap).is_ok());
        for dim in [7u32, 5, 3, 1] {
            let mut bytes = valid.clone();
            bytes[12..16].copy_from_slice(&dim.to_le_bytes());
            assert!(
                matches!(decode(&bytes), Err(CheckpointError::BadHeader)),
                "dim {dim}"
            );
            // The snapshot's inner checkpoint starts after its magic and
            // length prefix.
            let mut bytes = valid_snap.clone();
            bytes[8 + 12..8 + 16].copy_from_slice(&dim.to_le_bytes());
            assert!(
                matches!(decode_snapshot(&bytes), Err(CheckpointError::BadHeader)),
                "snapshot dim {dim}"
            );
        }
    }

    fn sample_snapshot() -> TrainSnapshot {
        let (foundation, spec) = sample_foundation(ArchKind::Lstm);
        let table = MarchTable::new(3, 8, 9);
        let total = foundation.model.num_params() + table.num_params();
        TrainSnapshot {
            foundation,
            spec,
            table,
            next_epoch: 7,
            adam_m: (0..total).map(|i| i as f32 * 1e-4).collect(),
            adam_v: (0..total).map(|i| i as f32 * 1e-6).collect(),
            adam_t: 1234,
            rng_state: [1, u64::MAX, 0x9e37_79b9, 42],
            best_val: 0.0625,
            best_params: (0..total).map(|i| (i as f32).sin()).collect(),
            best_epoch: 5,
            train_loss: vec![1.5, 0.9, -0.0, 0.3],
            val_loss: vec![2.0, 1.1, 0.8, 0.85],
        }
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let s = sample_snapshot();
        let bytes = encode_snapshot(&s);
        let s2 = decode_snapshot(&bytes).unwrap();
        assert_eq!(s2.spec, s.spec);
        assert_eq!(
            s2.foundation.model.get_params(),
            s.foundation.model.get_params()
        );
        assert_eq!(s2.table.reps, s.table.reps);
        assert_eq!(s2.next_epoch, s.next_epoch);
        assert_eq!(s2.best_epoch, s.best_epoch);
        assert_eq!(s2.adam_m, s.adam_m);
        assert_eq!(s2.adam_v, s.adam_v);
        assert_eq!(s2.adam_t, s.adam_t);
        assert_eq!(s2.rng_state, s.rng_state);
        assert_eq!(s2.best_val.to_bits(), s.best_val.to_bits());
        assert_eq!(s2.best_params, s.best_params);
        assert_eq!(
            s2.train_loss
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            s.train_loss.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(s2.val_loss, s.val_loss);
    }

    #[test]
    fn every_truncated_snapshot_prefix_fails_cleanly() {
        let bytes = encode_snapshot(&sample_snapshot());
        assert!(decode_snapshot(&bytes).is_ok());
        for cut in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..cut]).err();
            assert!(
                matches!(
                    err,
                    Some(CheckpointError::Truncated | CheckpointError::BadHeader)
                ),
                "prefix of {cut}/{} bytes gave {err:?}",
                bytes.len()
            );
        }
    }

    #[test]
    fn snapshot_trailing_bytes_are_rejected() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes.push(0);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(CheckpointError::Trailing)
        ));
    }

    #[test]
    fn snapshot_magic_is_distinct_from_checkpoint_magic() {
        // A plain checkpoint must not decode as a snapshot (and vice
        // versa): the formats fail closed against each other.
        let (f, spec) = sample_foundation(ArchKind::Lstm);
        let ckpt = encode(&f, spec, None);
        assert!(matches!(
            decode_snapshot(&ckpt),
            Err(CheckpointError::BadHeader)
        ));
        let snap = encode_snapshot(&sample_snapshot());
        assert!(matches!(decode(&snap), Err(CheckpointError::BadHeader)));
    }

    fn assert_snapshot_non_finite(s: &TrainSnapshot, what: &str) {
        assert_eq!(
            decode_snapshot(&encode_snapshot(s)).err(),
            Some(CheckpointError::NonFinite),
            "{what}"
        );
    }

    #[test]
    fn snapshot_with_a_nan_first_moment_is_rejected() {
        let mut s = sample_snapshot();
        s.adam_m[3] = f32::NAN;
        assert_snapshot_non_finite(&s, "adam_m");
    }

    #[test]
    fn snapshot_with_a_nan_or_negative_second_moment_is_rejected() {
        let mut s = sample_snapshot();
        s.adam_v[5] = f32::NAN;
        assert_snapshot_non_finite(&s, "adam_v NaN");
        let mut s = sample_snapshot();
        s.adam_v[5] = -1e-9;
        assert_snapshot_non_finite(&s, "adam_v negative");
    }

    #[test]
    fn snapshot_with_a_nan_best_parameter_is_rejected() {
        let mut s = sample_snapshot();
        let last = s.best_params.len() - 1;
        s.best_params[last] = f32::NAN;
        assert_snapshot_non_finite(&s, "best_params");
    }

    #[test]
    fn snapshot_with_mismatched_moment_lengths_is_rejected() {
        let mut s = sample_snapshot();
        s.adam_m.pop();
        let bytes = encode_snapshot(&s);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn snapshot_file_roundtrip_is_atomic_under_rename() {
        let dir = std::env::temp_dir().join("perfvec_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pfs");
        let s = sample_snapshot();
        save_snapshot(&s, &path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file must be renamed away"
        );
        let s2 = load_snapshot(&path).unwrap();
        assert_eq!(s2.best_params, s.best_params);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("perfvec_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foundation.pfm");
        let (f, spec) = sample_foundation(ArchKind::Lstm);
        save(&f, spec, None, &path).unwrap();
        let (f2, spec2, _) = load(&path).unwrap();
        assert_eq!(spec, spec2);
        assert_eq!(f2.model.get_params(), f.model.get_params());
        std::fs::remove_file(&path).ok();
    }
}
