//! The bench ledger: the one file format of every `BENCH_*.json`.
//!
//! Each bench e9–e17 writes one envelope at the workspace root,
//!
//! ```text
//! {"bench":"e17_canon","schema":1,"commit":"<git HEAD>","host":{"cpus":2},
//!  "quick":false,"samples":9,"metrics":{"canon_us_n8192":6331.705000,...}}
//! ```
//!
//! and `dclab bench-gate` reads gated values back by name out of
//! `metrics`. `samples` is the number of timed runs behind each timing in
//! `metrics` (the fewest, where cells differ); `metrics` holds numbers
//! only, so per-pass and per-deadline data are named metrics of their own.
//!
//! Quick mode (`DCLAB_BENCH_QUICK` set, what CI runs) may leave out
//! ungated cells; every gated metric is computed on the same inputs in
//! both modes, and a quick-mode file is never a baseline.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use dclab_engine::json::{parse, Obj, Value};

/// Envelope version; [`Envelope::parse`] refuses any other.
pub const SCHEMA: u64 = 1;

/// Whether this run is in quick mode (`DCLAB_BENCH_QUICK` set).
pub fn quick() -> bool {
    std::env::var_os("DCLAB_BENCH_QUICK").is_some()
}

/// Upper median: the element at `len / 2` once sorted.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall time in µs of `samples` timed calls of `f`.
pub fn median_us<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut us: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us)
}

/// `git rev-parse HEAD` of the working directory, or `unknown`.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// One bench run's metrics, written as an envelope by [`Ledger::finish`].
pub struct Ledger {
    bench: &'static str,
    file: &'static str,
    samples: usize,
    metrics: Obj,
}

impl Ledger {
    /// An empty ledger for `bench`, to be written to `file` at the
    /// workspace root; each timing it records is over `samples` runs.
    pub fn new(bench: &'static str, file: &'static str, samples: usize) -> Ledger {
        Ledger {
            bench,
            file,
            samples,
            metrics: Obj::new(),
        }
    }

    /// Record one metric. Panics on a non-finite value, which JSON cannot
    /// hold.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{}: metric {name} = {value}", self.bench);
        self.metrics = std::mem::take(&mut self.metrics).f64(name, value);
    }

    /// Write the envelope, then exit non-zero if any acceptance check in
    /// `failures` failed.
    pub fn finish(self, failures: &[String]) {
        let host = Obj::new()
            .usize(
                "cpus",
                std::thread::available_parallelism().map_or(0, |c| c.get()),
            )
            .finish();
        let json = Obj::new()
            .str("bench", self.bench)
            .u64("schema", SCHEMA)
            .str("commit", &commit())
            .raw("host", &host)
            .bool("quick", quick())
            .usize("samples", self.samples)
            .raw("metrics", &self.metrics.finish())
            .finish();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(self.file);
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        if !failures.is_empty() {
            eprintln!("{} acceptance FAILED:", self.bench);
            for f in failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}

/// A `BENCH_*.json` file read back.
#[derive(Debug)]
pub struct Envelope {
    pub bench: String,
    pub commit: String,
    pub cpus: u64,
    pub quick: bool,
    pub samples: u64,
    pub metrics: Vec<(String, f64)>,
}

impl Envelope {
    /// Parse an envelope; any other shape or `schema` is an error.
    pub fn parse(text: &str) -> Result<Envelope, String> {
        let doc = parse(text)?;
        let num = |path: &str| {
            doc.path(path)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("no number at '{path}'"))
        };
        let text_at = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("no string at '{key}'"))
        };
        let schema = num("schema")?;
        if schema != SCHEMA as f64 {
            return Err(format!(
                "unknown schema {schema} (this reader knows {SCHEMA})"
            ));
        }
        let quick = match doc.get("quick") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("no boolean at 'quick'".into()),
        };
        let Some(Value::Obj(fields)) = doc.get("metrics") else {
            return Err("no object at 'metrics'".into());
        };
        let metrics = fields
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("metric '{k}' is not a number"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Envelope {
            bench: text_at("bench")?,
            commit: text_at("commit")?,
            cpus: num("host.cpus")? as u64,
            quick,
            samples: num("samples")? as u64,
            metrics,
        })
    }

    /// Read and parse `path`; `Ok(None)` if the file does not exist.
    pub fn read(path: &Path) -> Result<Option<Envelope>, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Envelope::parse(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// The metric called `name`, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}
