//! `dclab oracle` — build and inspect hub-label distance oracles offline.
//!
//! `build` parses an instance file, runs the pruned-landmark-labeling
//! construction, prints one JSON stats line, and (with `--out`) writes the
//! serialized labels so later runs can skip the build. `stats` re-reads a
//! serialized label file and prints the same shape without rebuilding.

use dclab_engine::json::Obj;
use dclab_graph::io;
use dclab_oracle::{dense_matrix_bytes, dense_pipeline_bytes, HubLabels};

/// One deterministic JSON line describing a label set.
fn stats_line(file: &str, action: &str, labels: &HubLabels, m: Option<usize>) -> String {
    let n = labels.n();
    let entries = labels.label_entries() as u64;
    let obj = Obj::new()
        .str("file", file)
        .str("action", action)
        .usize("n", n);
    let obj = match m {
        Some(m) => obj.usize("m", m),
        None => obj,
    };
    obj.u64("label_entries", entries)
        .u64("avg_label_size", entries.checked_div(n as u64).unwrap_or(0))
        .usize("max_label_size", labels.max_label_len())
        .u64("footprint_bytes", labels.footprint_bytes())
        .u64("dense_matrix_bytes", dense_matrix_bytes(n))
        .u64("dense_pipeline_bytes", dense_pipeline_bytes(n))
        .finish()
}

/// Positional args plus the `--out` and `--format` flag values.
struct OracleFlags {
    positional: Vec<String>,
    out: Option<String>,
    format: Option<io::Format>,
}

fn parse_flags(args: &[String]) -> Result<OracleFlags, String> {
    let mut positional = Vec::new();
    let mut out = None;
    let mut format = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = Some(flag_value("--out")?),
            "--format" => format = Some(flag_value("--format")?.parse()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => positional.push(arg.clone()),
        }
    }
    Ok(OracleFlags {
        positional,
        out,
        format,
    })
}

const USAGE: &str = "usage: dclab oracle build <instance> [--out labels.dcor] \
                     [--format edgelist|dimacs]\n       dclab oracle stats <labels.dcor>";

/// `dclab oracle build|stats ...` (see module docs).
pub fn oracle_cmd(args: &[String]) -> Result<(), String> {
    let OracleFlags {
        positional,
        out,
        format,
    } = parse_flags(args)?;
    let [action, file] = positional.as_slice() else {
        return Err(USAGE.into());
    };
    match action.as_str() {
        "build" => {
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let format = format.unwrap_or_else(|| io::Format::from_path(file));
            let graph = io::parse(&text, format).map_err(|e| format!("{file}: {e}"))?;
            let labels = HubLabels::build(&graph).map_err(|e| e.to_string())?;
            if let Some(out) = &out {
                std::fs::write(out, labels.to_bytes()).map_err(|e| format!("{out}: {e}"))?;
                eprintln!(
                    "wrote {} label entries ({} bytes) to {out}",
                    labels.label_entries(),
                    labels.footprint_bytes()
                );
            }
            println!("{}", stats_line(file, "build", &labels, Some(graph.m())));
            Ok(())
        }
        "stats" => {
            if out.is_some() {
                return Err("--out only applies to `oracle build`".into());
            }
            let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
            let labels = HubLabels::from_bytes(&bytes).map_err(|e| format!("{file}: {e}"))?;
            println!("{}", stats_line(file, "stats", &labels, None));
            Ok(())
        }
        other => Err(format!("unknown oracle action '{other}'\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::classic;

    /// A temp directory for one test, removed when its owner drops: at the
    /// end of the test, and on a failed assertion too.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("dclab-oracle-cmd-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir");
            Scratch(dir)
        }

        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn build_then_stats_round_trips_through_the_label_file() {
        let dir = Scratch::new("round-trip");
        let instance = dir.join("petersen.edges");
        std::fs::write(&instance, io::write_edge_list(&classic::petersen())).unwrap();
        let labels_path = dir.join("petersen.dcor");
        oracle_cmd(&[
            "build".into(),
            instance.to_str().unwrap().to_string(),
            "--out".into(),
            labels_path.to_str().unwrap().to_string(),
        ])
        .expect("build succeeds");
        // The serialized labels decode to an exact oracle.
        let bytes = std::fs::read(&labels_path).unwrap();
        let labels = HubLabels::from_bytes(&bytes).expect("decodes");
        assert_eq!(labels.n(), 10);
        assert_eq!(labels.query(0, 0), 0);
        oracle_cmd(&["stats".into(), labels_path.to_str().unwrap().to_string()])
            .expect("stats succeeds");
    }

    #[test]
    fn bad_usage_is_an_error_not_a_panic() {
        assert!(oracle_cmd(&[]).is_err());
        assert!(oracle_cmd(&["build".into()]).is_err());
        assert!(oracle_cmd(&["frobnicate".into(), "x".into()]).is_err());
        assert!(oracle_cmd(&["stats".into(), "/nonexistent/labels.dcor".into()]).is_err());
    }
}
