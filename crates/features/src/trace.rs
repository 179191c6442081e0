//! Trace features — the dynamic-analysis channel.
//!
//! The dispatcher explorer (`phishinghook_evm::explorer`) executes a
//! contract once per discovered selector plus the fallback path and records
//! what actually happens: reachable `CALL`/`SELFDESTRUCT` sites, value
//! transfers and their targets, storage-gated transfer patterns, revert
//! topology. [`TraceExtractor`] reduces that structured [`Trace`] to a
//! fixed-width feature row, giving any HSC or ensemble a behavioral view
//! that opcode histograms cannot provide (honeypots are *engineered* to be
//! statically indistinguishable from their benign twins — see
//! `phishinghook_data::honeypot`).
//!
//! Unlike [`crate::HistogramExtractor`] the extractor is stateless — the
//! column set is fixed, not fitted — so the same extractor config always
//! produces the same columns, and exploration runs under the
//! deterministic [`NullHost`] environment (fresh storage, fixed caller),
//! keeping train/serve feature rows bit-identical.

use phishinghook_evm::explorer::{Explorer, ExplorerConfig, Trace};
use phishinghook_evm::host::CallKind;
use phishinghook_evm::interp::Status;
use phishinghook_ml::Matrix;

#[allow(unused_imports)] // rustdoc link
use phishinghook_evm::host::NullHost;

/// The fixed trace-feature columns, in row order.
pub const TRACE_COLUMNS: [&str; 20] = [
    "trace.selectors",
    "trace.runs",
    "trace.revert_frac",
    "trace.fallback_revert",
    "trace.halt_frac",
    "trace.calls",
    "trace.value_calls",
    "trace.value_to_caller",
    "trace.value_to_other",
    "trace.call_after_sload",
    "trace.call_after_sstore",
    "trace.delegate_calls",
    "trace.static_calls",
    "trace.selfdestructs",
    "trace.selfdestruct_to_caller",
    "trace.sloads",
    "trace.sstores",
    "trace.logs",
    "trace.mean_steps",
    "trace.payout_reachable",
];

/// Turns explorer traces into fixed-width feature rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceExtractor {
    /// Gas budget per selector run.
    pub gas_per_run: u64,
    /// Step budget per selector run.
    pub steps_per_run: u64,
    /// Selector-table truncation bound.
    pub max_selectors: usize,
}

impl Default for TraceExtractor {
    fn default() -> Self {
        let cfg = ExplorerConfig::default();
        TraceExtractor {
            gas_per_run: cfg.gas_per_run,
            steps_per_run: cfg.steps_per_run,
            max_selectors: cfg.max_selectors,
        }
    }
}

impl TraceExtractor {
    /// The extractor with default explorer budgets.
    pub fn new() -> Self {
        TraceExtractor::default()
    }

    /// The column names, in row order.
    pub fn columns(&self) -> &'static [&'static str] {
        &TRACE_COLUMNS
    }

    /// Number of features (fixed).
    pub fn n_features(&self) -> usize {
        TRACE_COLUMNS.len()
    }

    fn explorer(&self) -> Explorer {
        Explorer::new(ExplorerConfig {
            gas_per_run: self.gas_per_run,
            steps_per_run: self.steps_per_run,
            max_selectors: self.max_selectors,
        })
    }

    /// Reduces one already-computed trace to a feature row (in `row`, which
    /// must be [`Self::n_features`] wide), in one pass over its runs.
    pub fn featurize_into(&self, trace: &Trace, row: &mut [f64]) {
        debug_assert_eq!(row.len(), TRACE_COLUMNS.len());
        let mut t = Tally::default();
        for run in &trace.runs {
            if run.selector.is_some() {
                t.sel_runs += 1;
                t.reverted += u64::from(run.reverted());
            }
            t.halted += u64::from(run.halted());
            for c in &run.calls {
                t.calls += 1;
                if c.transfers_value {
                    t.value_calls += 1;
                    t.value_to_caller += u64::from(c.to_caller);
                    t.value_after_sload += u64::from(c.after_sload);
                }
                t.after_sstore += u64::from(c.after_sstore);
                t.delegate_calls += u64::from(c.kind == CallKind::DelegateCall);
                t.static_calls += u64::from(c.kind == CallKind::StaticCall);
            }
            for sd in &run.selfdestructs {
                t.selfdestructs += 1;
                t.sd_to_caller += u64::from(sd.to_caller);
            }
            t.sloads += run.sloads;
            t.sstores += run.sstores;
            t.logs += run.logs;
            t.steps += run.steps;
        }
        let n_runs = trace.runs.len() as u64;

        row[0] = trace.selectors_total as f64;
        row[1] = n_runs as f64;
        row[2] = t.reverted as f64 / t.sel_runs.max(1) as f64;
        row[3] = f64::from(u8::from(trace.fallback().status == Status::Revert));
        row[4] = t.halted as f64 / n_runs.max(1) as f64;
        row[5] = t.calls as f64;
        row[6] = t.value_calls as f64;
        row[7] = t.value_to_caller as f64;
        row[8] = (t.value_calls - t.value_to_caller) as f64;
        row[9] = t.value_after_sload as f64;
        row[10] = t.after_sstore as f64;
        row[11] = t.delegate_calls as f64;
        row[12] = t.static_calls as f64;
        row[13] = t.selfdestructs as f64;
        row[14] = t.sd_to_caller as f64;
        row[15] = t.sloads as f64;
        row[16] = t.sstores as f64;
        row[17] = t.logs as f64;
        row[18] = t.steps as f64 / n_runs.max(1) as f64;
        row[19] = f64::from(u8::from(t.value_to_caller > 0 || t.sd_to_caller > 0));
    }

    /// Explores `code` and writes its feature row into `row`.
    pub fn extract_into(&self, code: &[u8], row: &mut [f64]) {
        let trace = self.explorer().explore(code);
        self.featurize_into(&trace, row);
    }

    /// Trace feature row of one bytecode.
    pub fn transform_one(&self, code: &[u8]) -> Vec<f64> {
        let mut row = vec![0.0; self.n_features()];
        self.extract_into(code, &mut row);
        row
    }

    /// Streams every bytecode's trace row into `out`, which must be
    /// `codes.len() × n_features()`.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn transform_into(&self, codes: &[&[u8]], out: &mut Matrix) {
        assert_eq!(out.rows(), codes.len(), "one output row per bytecode");
        assert_eq!(out.cols(), self.n_features(), "column count mismatch");
        for (i, code) in codes.iter().enumerate() {
            self.extract_into(code, out.row_mut(i));
        }
    }

    /// Trace features of many bytecodes as a feature matrix.
    pub fn transform(&self, codes: &[&[u8]]) -> Matrix {
        let mut out = Matrix::zeros(codes.len(), self.n_features());
        self.transform_into(codes, &mut out);
        out
    }
}

/// The counts one pass over a trace's runs collects.
#[derive(Default)]
struct Tally {
    sel_runs: u64,
    reverted: u64,
    halted: u64,
    calls: u64,
    value_calls: u64,
    value_to_caller: u64,
    value_after_sload: u64,
    after_sstore: u64,
    delegate_calls: u64,
    static_calls: u64,
    selfdestructs: u64,
    sd_to_caller: u64,
    sloads: u64,
    sstores: u64,
    logs: u64,
    steps: u64,
}

// --- Persistence -----------------------------------------------------------

use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

impl Snapshot for TraceExtractor {
    fn snapshot(&self, w: &mut Writer) {
        w.put_u64(self.gas_per_run);
        w.put_u64(self.steps_per_run);
        w.put_usize(self.max_selectors);
        // Column count pins the feature width a snapshot was trained
        // against; a restore into a build with a different trace schema
        // must fail loudly rather than mis-feed a model.
        w.put_usize(TRACE_COLUMNS.len());
    }
}

impl Restore for TraceExtractor {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let gas_per_run = r.take_u64()?;
        let steps_per_run = r.take_u64()?;
        let max_selectors = r.take_usize()?;
        let n_cols = r.take_usize()?;
        if n_cols != TRACE_COLUMNS.len() {
            return Err(PersistError::Malformed(format!(
                "trace extractor snapshot has {n_cols} columns, this build has {}",
                TRACE_COLUMNS.len()
            )));
        }
        if gas_per_run == 0 || steps_per_run == 0 {
            return Err(PersistError::Malformed(
                "trace extractor budgets must be nonzero".into(),
            ));
        }
        Ok(TraceExtractor {
            gas_per_run,
            steps_per_run,
            max_selectors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::asm::Asm;
    use phishinghook_persist::{from_envelope, to_envelope};

    /// A dispatcher whose one function pays the caller.
    fn paying_contract() -> Vec<u8> {
        let mut asm = Asm::new();
        asm.op("PUSH0").op("CALLDATALOAD").push_u64(0xE0).op("SHR");
        asm.op("DUP1").push_selector([1, 2, 3, 4]).op("EQ");
        asm.jumpi("pay");
        asm.op("STOP");
        asm.label("pay");
        asm.push_u64(0).push_u64(0).push_u64(0).push_u64(0);
        asm.push_u64(9).op("CALLER").push_u64(30_000).op("CALL");
        asm.op("POP").op("STOP");
        asm.assemble().unwrap()
    }

    #[test]
    fn columns_and_width_agree() {
        let ex = TraceExtractor::new();
        assert_eq!(ex.n_features(), TRACE_COLUMNS.len());
        assert_eq!(ex.columns().len(), ex.n_features());
    }

    #[test]
    fn payout_lights_the_expected_columns() {
        let ex = TraceExtractor::new();
        let row = ex.transform_one(&paying_contract());
        let col = |name: &str| {
            row[TRACE_COLUMNS
                .iter()
                .position(|&c| c == name)
                .unwrap_or_else(|| panic!("{name}"))]
        };
        assert_eq!(col("trace.selectors"), 1.0);
        assert_eq!(col("trace.runs"), 2.0);
        assert_eq!(col("trace.value_calls"), 1.0);
        assert_eq!(col("trace.value_to_caller"), 1.0);
        assert_eq!(col("trace.value_to_other"), 0.0);
        assert_eq!(col("trace.payout_reachable"), 1.0);
    }

    #[test]
    fn extraction_is_deterministic() {
        let ex = TraceExtractor::new();
        let code = paying_contract();
        let a = ex.transform_one(&code);
        let b = ex.transform_one(&code);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn matrix_shape_and_rows_match_single_path() {
        let ex = TraceExtractor::new();
        let code = paying_contract();
        let empty: &[u8] = &[];
        let m = ex.transform(&[code.as_slice(), empty]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), ex.n_features());
        assert_eq!(m.row(0), ex.transform_one(&code).as_slice());
        assert_eq!(m.row(1), ex.transform_one(empty).as_slice());
    }

    #[test]
    fn snapshot_round_trip_is_identity() {
        let ex = TraceExtractor {
            gas_per_run: 123_456,
            steps_per_run: 9_999,
            max_selectors: 7,
        };
        let back: TraceExtractor =
            from_envelope("trace", &to_envelope("trace", &ex)).expect("round-trips");
        assert_eq!(back, ex);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_with_typed_errors() {
        let ex = TraceExtractor::new();
        let env = to_envelope("trace", &ex);
        // Truncation inside the payload.
        let cut = &env[..env.len() - 6];
        assert!(matches!(
            from_envelope::<TraceExtractor>("trace", cut),
            Err(PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. })
        ));
        // Zeroed budget fails the validity check (rebuild a valid envelope
        // around a hand-written bad payload).
        let bad = TraceExtractor {
            gas_per_run: 0,
            ..TraceExtractor::new()
        };
        let env = to_envelope("trace", &bad);
        assert!(matches!(
            from_envelope::<TraceExtractor>("trace", &env),
            Err(PersistError::Malformed(_))
        ));
    }
}
