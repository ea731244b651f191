//! `dclab oracle build` — build a hub-label distance oracle offline.
//!
//! `build` parses an instance file, runs the pruned-landmark-labeling
//! construction and prints one JSON stats line. The labels are not
//! written anywhere: every solve builds its own.

use dclab_engine::json::Obj;
use dclab_graph::io;
use dclab_oracle::{dense_matrix_bytes, dense_pipeline_bytes, HubLabels};

const USAGE: &str = "usage: dclab oracle build <instance> [--format edgelist|dimacs]";

/// `dclab oracle build ...` (see module docs).
pub fn oracle_cmd(args: &[String]) -> Result<(), String> {
    println!("{}", build_stats(args)?);
    Ok(())
}

/// The one deterministic JSON line `dclab oracle build` prints.
fn build_stats(args: &[String]) -> Result<String, String> {
    let mut positional = Vec::new();
    let mut format = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = Some(it.next().ok_or("--format needs a value")?.parse()?),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}'\n{USAGE}"))
            }
            _ => positional.push(arg),
        }
    }
    let [action, file] = positional.as_slice() else {
        return Err(USAGE.into());
    };
    if action.as_str() != "build" {
        return Err(format!("unknown oracle action '{action}'\n{USAGE}"));
    }
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let format = format.unwrap_or_else(|| io::Format::from_path(file));
    let graph = io::parse(&text, format).map_err(|e| format!("{file}: {e}"))?;
    let labels = HubLabels::build(&graph).map_err(|e| e.to_string())?;
    let n = labels.n();
    let entries = labels.label_entries() as u64;
    Ok(Obj::new()
        .str("file", file)
        .str("action", "build")
        .usize("n", n)
        .usize("m", graph.m())
        .u64("label_entries", entries)
        .u64("avg_label_size", entries.checked_div(n as u64).unwrap_or(0))
        .usize("max_label_size", labels.max_label_len())
        .u64("footprint_bytes", labels.footprint_bytes())
        .u64("dense_matrix_bytes", dense_matrix_bytes(n))
        .u64("dense_pipeline_bytes", dense_pipeline_bytes(n))
        .finish())
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
    fn build_stats_line_is_unchanged_and_label_file_commands_are_usage_errors() {
        let dir = Scratch::new("petersen");
        let instance = dir.join("petersen.edges");
        std::fs::write(&instance, io::write_edge_list(&classic::petersen())).unwrap();
        let file = instance.to_str().unwrap().to_string();
        // The line the build printed before label files were dropped.
        assert_eq!(
            build_stats(&["build".into(), file.clone()]).expect("build succeeds"),
            format!(
                "{{\"file\":\"{file}\",\"action\":\"build\",\"n\":10,\"m\":15,\
                 \"label_entries\":47,\"avg_label_size\":4,\"max_label_size\":9,\
                 \"footprint_bytes\":326,\"dense_matrix_bytes\":400,\
                 \"dense_pipeline_bytes\":1200}}"
            )
        );
        let out = dir.join("petersen.dcor");
        let out = out.to_str().unwrap().to_string();
        for args in [
            vec!["stats".to_string(), file.clone()],
            vec!["build".into(), file.clone(), "--out".into(), out.clone()],
        ] {
            let err = build_stats(&args).expect_err("a usage error");
            assert!(err.ends_with(USAGE), "{args:?}: {err}");
        }
        assert!(!std::path::Path::new(&out).exists());
    }

    #[test]
    fn bad_usage_is_an_error_not_a_panic() {
        assert!(oracle_cmd(&[]).is_err());
        assert!(oracle_cmd(&["build".into()]).is_err());
        assert!(oracle_cmd(&["frobnicate".into(), "x".into()]).is_err());
        assert!(oracle_cmd(&["build".into(), "/nonexistent/g.edges".into()]).is_err());
        assert!(oracle_cmd(&["build".into(), "x".into(), "--format".into()]).is_err());
    }
}
