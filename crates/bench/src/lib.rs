//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! The interesting entry points are the binaries in `src/bin/` — one per
//! paper table/figure (`table1`, `fig2`, `fig3`, `table2`, `table3`,
//! `fig4`–`fig9`) — and the benches in `benches/`.
//!
//! Heavy experiments share work through `results/table2_trials.csv`: the
//! `table2` binary writes the per-trial results, and `table3`/`fig4` reuse
//! them when present instead of retraining all 16 models.

use phishinghook_core::metrics::BinaryMetrics;
use phishinghook_core::pipeline::TrialResult;
use phishinghook_models::Category;

pub mod seed_paths {
    //! Reference implementations of the seed repository's hot paths,
    //! preserved so the perf benches and the `bench` binary always compare
    //! the optimized pipeline against the original algorithms (eagerly
    //! collected disassembly with owned operands, two-phase HashMap
    //! histogram extraction, per-row enum-node forest inference, the
    //! bit-at-a-time snapshot checksum) rather than against themselves.

    use phishinghook_evm::disasm::Instruction;
    use phishinghook_evm::opcode::ShanghaiRegistry;
    use phishinghook_features::HistogramExtractor;
    use phishinghook_ml::{Matrix, RandomForest};
    use std::collections::HashMap;

    /// The seed's `disassemble`, decode loop and allocation pattern intact
    /// (registry lookup per byte, `Vec::with_capacity(code.len())`, one
    /// owned operand `Vec` per instruction). The current
    /// `disasm::disassemble` is a collecting wrapper over the streaming
    /// iterator, so the seed loop is kept here for honest baselines.
    pub fn disassemble(code: &[u8]) -> Vec<Instruction> {
        let reg = ShanghaiRegistry::shared();
        let mut out = Vec::with_capacity(code.len());
        let mut pc = 0usize;
        while pc < code.len() {
            let byte = code[pc];
            let info = reg.get(byte);
            let imm = info.map_or(0, |i| usize::from(i.immediate_bytes));
            let avail = code.len() - pc - 1;
            let take = imm.min(avail);
            out.push(Instruction {
                offset: pc,
                byte,
                info,
                operand: code[pc + 1..pc + 1 + take].to_vec(),
                truncated: take < imm,
            });
            pc += 1 + take;
        }
        out
    }

    /// The seed's histogram transform: collect a `Vec<Instruction>` per
    /// bytecode, count via a per-mnemonic `HashMap`, gather rows into a
    /// `Vec<Vec<f64>>`, then copy into a `Matrix`.
    pub fn histogram_transform(extractor: &HistogramExtractor, codes: &[&[u8]]) -> Matrix {
        let index: HashMap<&str, usize> = extractor
            .columns()
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i))
            .collect();
        let rows: Vec<Vec<f64>> = codes
            .iter()
            .map(|code| {
                let mut row = vec![0.0; extractor.n_features()];
                for ins in disassemble(code) {
                    if let Some(&j) = index.get(ins.mnemonic()) {
                        row[j] += 1.0;
                    }
                }
                row
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    /// The seed's forest inference: trees outer, rows inner, walking the
    /// enum node arena one row at a time.
    pub fn forest_predict_proba(forest: &RandomForest, x: &Matrix) -> Vec<f64> {
        let mut probs = vec![0.0; x.rows()];
        for tree in forest.trees() {
            for (p, row) in probs.iter_mut().zip(x.iter_rows()) {
                *p += tree.predict_row(row);
            }
        }
        let k = forest.trees().len() as f64;
        for p in &mut probs {
            *p /= k;
        }
        probs
    }

    /// The seed's snapshot checksum: CRC-32 (IEEE), one bit at a time.
    pub fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, scale: &phishinghook_core::experiments::ExperimentScale) {
    println!("PhishingHook reproduction — {what}");
    println!(
        "scale: {} contracts, {}-fold CV × {} run(s), seed {}",
        scale.n_contracts, scale.folds, scale.runs, scale.seed
    );
    println!();
}

/// Serializes trials into the interchange CSV used by `table3`/`fig4`.
pub fn trials_to_csv(trials: &[TrialResult]) -> String {
    let mut out = String::from(
        "model,category,run,fold,accuracy,precision,recall,f1,train_secs,infer_secs\n",
    );
    for t in trials {
        use std::fmt::Write;
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            t.model,
            t.category,
            t.run,
            t.fold,
            t.metrics.accuracy,
            t.metrics.precision,
            t.metrics.recall,
            t.metrics.f1,
            t.train_secs,
            t.infer_secs
        )
        .expect("write to String");
    }
    out
}

/// Parses the interchange CSV produced by [`trials_to_csv`]; returns `None`
/// on any malformed row.
pub fn trials_from_csv(text: &str) -> Option<Vec<TrialResult>> {
    let mut out = Vec::new();
    for line in text.lines().skip(1) {
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 10 {
            return None;
        }
        let category = match cols[1] {
            "Histogram" => Category::Histogram,
            "Vision" => Category::Vision,
            "Language" => Category::Language,
            "Vulnerability" => Category::VulnerabilityDetection,
            _ => return None,
        };
        out.push(TrialResult {
            model: cols[0].to_owned(),
            category,
            run: cols[2].parse().ok()?,
            fold: cols[3].parse().ok()?,
            metrics: BinaryMetrics {
                accuracy: cols[4].parse().ok()?,
                precision: cols[5].parse().ok()?,
                recall: cols[6].parse().ok()?,
                f1: cols[7].parse().ok()?,
            },
            train_secs: cols[8].parse().ok()?,
            infer_secs: cols[9].parse().ok()?,
        });
    }
    Some(out)
}

/// Loads cached table2 trials from `results/table2_trials.csv`, if present.
pub fn load_cached_trials() -> Option<Vec<TrialResult>> {
    let text = std::fs::read_to_string("results/table2_trials.csv").ok()?;
    let trials = trials_from_csv(&text)?;
    if trials.is_empty() {
        None
    } else {
        Some(trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_roundtrip() {
        let trials = vec![TrialResult {
            model: "Random Forest".into(),
            category: Category::Histogram,
            run: 1,
            fold: 2,
            metrics: BinaryMetrics {
                accuracy: 0.9,
                precision: 0.91,
                recall: 0.89,
                f1: 0.9,
            },
            train_secs: 0.5,
            infer_secs: 0.01,
        }];
        let csv = trials_to_csv(&trials);
        let parsed = trials_from_csv(&csv).expect("parses");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].model, "Random Forest");
        assert_eq!(parsed[0].metrics, trials[0].metrics);
    }

    #[test]
    fn malformed_csv_rejected() {
        assert!(trials_from_csv("header\nbad,row\n").is_none());
    }

    #[test]
    fn seed_disassemble_matches_current_disassemble() {
        // The preserved seed decode loop must keep producing the same
        // instructions as the live disassembler, or the benchmark baseline
        // stops being a fair comparison.
        let corpus = phishinghook_data::Corpus::generate(&phishinghook_data::CorpusConfig {
            n_contracts: 16,
            seed: 0xD15A,
            ..Default::default()
        });
        for record in &corpus.records {
            assert_eq!(
                seed_paths::disassemble(&record.bytecode),
                phishinghook_evm::disasm::disassemble(&record.bytecode)
            );
        }
    }

    #[test]
    fn seed_histogram_matches_fused_transform() {
        let codes: Vec<Vec<u8>> = vec![vec![0x60, 0x80, 0x60, 0x40, 0x52], vec![0x00, 0xFE]];
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let extractor = phishinghook_features::HistogramExtractor::fit(&refs);
        assert_eq!(
            seed_paths::histogram_transform(&extractor, &refs),
            extractor.transform(&refs)
        );
    }
}
