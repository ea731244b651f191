//! `dclab gen` — expose `graph::generators` on the command line: seeded,
//! reproducible instance corpora (edge-list or DIMACS) without ad-hoc
//! scripts, for the store, the loadgen, and the experiments alike.

use dclab_graph::generators::{classic, random};
use dclab_graph::io as graph_io;
use dclab_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const GEN_HELP: &str = "\
usage: dclab gen <family> [FLAGS]

FAMILIES (deterministic):
  path | cycle | complete | star | wheel | petersen     --n N
  grid                                                  --rows R --cols C
  bipartite                                             --a A --b B
  multipartite                                          --parts a,b,c,...
  split                                                 --clique K --indep I

FAMILIES (seeded random; vary with --seed):
  gnp        --n N --prob P [--max-diameter D]   Erdős–Rényi G(n,p)
  gnm        --n N --edges M                     uniform G(n,m)
  tree       --n N                               uniform labelled tree
  ba         --n N --attach M                    Barabási–Albert
  ws         --n N --k K --beta B                Watts–Strogatz
  cograph    --n N --join-prob P                 connected random cograph
  rsplit     --clique K --indep I --cross P      random split graph
  smalldiam  --n N --core C [--extra P]          core–periphery, diameter 2;
             (--target-n N overrides --n)        sized for oracle-scale runs

FLAGS:
  --seed S              RNG seed (default 42; instance i uses seed S+i)
  --count C             instances to generate (default 1)
  --out PATH            output file (count 1) or directory (count > 1);
                        default: stdout (count 1 only)
  --format FMT          edgelist | dimacs (default edgelist)
";

struct GenOpts {
    n: usize,
    prob: f64,
    edges: usize,
    attach: usize,
    k: usize,
    beta: f64,
    join_prob: f64,
    clique: usize,
    indep: usize,
    cross: f64,
    rows: usize,
    cols: usize,
    a: usize,
    b: usize,
    parts: Vec<usize>,
    target_n: Option<usize>,
    core: usize,
    extra: f64,
    max_diameter: Option<u32>,
    seed: u64,
    count: usize,
    out: Option<String>,
    format: graph_io::Format,
}

impl Default for GenOpts {
    fn default() -> Self {
        GenOpts {
            n: 16,
            prob: 0.5,
            edges: 24,
            attach: 3,
            k: 4,
            beta: 0.2,
            join_prob: 0.6,
            clique: 4,
            indep: 8,
            cross: 0.4,
            rows: 4,
            cols: 4,
            a: 4,
            b: 4,
            parts: vec![3, 3, 3],
            target_n: None,
            core: 64,
            extra: 0.0,
            max_diameter: None,
            seed: 42,
            count: 1,
            out: None,
            format: graph_io::Format::EdgeList,
        }
    }
}

fn parse_gen_opts(args: &[String]) -> Result<(Option<String>, GenOpts), String> {
    let mut family = None;
    let mut opts = GenOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parse_usize = |name: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|e| format!("bad {name}: {e}"))
        };
        let parse_f64 = |name: &str, v: String| -> Result<f64, String> {
            v.parse().map_err(|e| format!("bad {name}: {e}"))
        };
        match arg.as_str() {
            "--n" => opts.n = parse_usize("--n", value("--n")?)?,
            "--prob" => opts.prob = parse_f64("--prob", value("--prob")?)?,
            "--edges" => opts.edges = parse_usize("--edges", value("--edges")?)?,
            "--attach" => opts.attach = parse_usize("--attach", value("--attach")?)?,
            "--k" => opts.k = parse_usize("--k", value("--k")?)?,
            "--beta" => opts.beta = parse_f64("--beta", value("--beta")?)?,
            "--join-prob" => opts.join_prob = parse_f64("--join-prob", value("--join-prob")?)?,
            "--clique" => opts.clique = parse_usize("--clique", value("--clique")?)?,
            "--indep" => opts.indep = parse_usize("--indep", value("--indep")?)?,
            "--cross" => opts.cross = parse_f64("--cross", value("--cross")?)?,
            "--rows" => opts.rows = parse_usize("--rows", value("--rows")?)?,
            "--cols" => opts.cols = parse_usize("--cols", value("--cols")?)?,
            "--a" => opts.a = parse_usize("--a", value("--a")?)?,
            "--b" => opts.b = parse_usize("--b", value("--b")?)?,
            "--parts" => {
                let raw = value("--parts")?;
                let parts: Result<Vec<usize>, _> =
                    raw.split(',').map(|t| t.trim().parse::<usize>()).collect();
                opts.parts = parts.map_err(|e| format!("bad --parts '{raw}': {e}"))?;
            }
            "--target-n" => opts.target_n = Some(parse_usize("--target-n", value("--target-n")?)?),
            "--core" => opts.core = parse_usize("--core", value("--core")?)?,
            "--extra" => opts.extra = parse_f64("--extra", value("--extra")?)?,
            "--max-diameter" => {
                opts.max_diameter = Some(
                    value("--max-diameter")?
                        .parse()
                        .map_err(|e| format!("bad --max-diameter: {e}"))?,
                )
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--count" => opts.count = parse_usize("--count", value("--count")?)?,
            "--out" => opts.out = Some(value("--out")?),
            "--format" => opts.format = value("--format")?.parse()?,
            flag if flag.starts_with("--") => return Err(format!("unknown gen flag '{flag}'")),
            name => {
                if family.replace(name.to_string()).is_some() {
                    return Err("gen takes exactly one family".into());
                }
            }
        }
    }
    Ok((family, opts))
}

fn build(family: &str, opts: &GenOpts, seed: u64) -> Result<Graph, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match family {
        "path" => classic::path(opts.n),
        "cycle" => classic::cycle(opts.n.max(3)),
        "complete" => classic::complete(opts.n),
        "star" => classic::star(opts.n),
        "wheel" => classic::wheel(opts.n.max(4)),
        "petersen" => classic::petersen(),
        "grid" => classic::grid(opts.rows, opts.cols),
        "bipartite" => classic::complete_bipartite(opts.a, opts.b),
        "multipartite" => classic::complete_multipartite(&opts.parts),
        "split" => classic::split_graph(opts.clique.max(1), opts.indep),
        "gnp" => match opts.max_diameter {
            Some(d) => random::gnp_with_diameter_at_most(&mut rng, opts.n, opts.prob, d),
            None => random::gnp(&mut rng, opts.n, opts.prob),
        },
        "gnm" => {
            let max = opts.n * opts.n.saturating_sub(1) / 2;
            if opts.edges > max {
                return Err(format!(
                    "--edges {} exceeds max {max} for n={}",
                    opts.edges, opts.n
                ));
            }
            random::gnm(&mut rng, opts.n, opts.edges)
        }
        "tree" => random::random_tree(&mut rng, opts.n),
        "ba" => {
            if opts.attach == 0 || opts.n <= opts.attach {
                return Err("ba needs --attach ≥ 1 and --n > --attach".into());
            }
            random::barabasi_albert(&mut rng, opts.n, opts.attach)
        }
        "ws" => {
            if !opts.k.is_multiple_of(2) || opts.k >= opts.n {
                return Err("ws needs an even --k < --n".into());
            }
            random::watts_strogatz(&mut rng, opts.n, opts.k, opts.beta)
        }
        "cograph" => random::random_connected_cograph(&mut rng, opts.n, opts.join_prob),
        "smalldiam" => {
            let n = opts.target_n.unwrap_or(opts.n);
            if opts.core == 0 {
                return Err("smalldiam needs --core ≥ 1".into());
            }
            random::core_periphery(&mut rng, n, opts.core, opts.extra)
        }
        "rsplit" => random::random_split(&mut rng, opts.clique.max(1), opts.indep, opts.cross),
        other => {
            return Err(format!(
                "unknown family '{other}' (run `dclab gen` with no family for the list)"
            ))
        }
    };
    Ok(g)
}

fn extension(format: graph_io::Format) -> &'static str {
    match format {
        graph_io::Format::EdgeList => "edges",
        graph_io::Format::Dimacs => "col",
    }
}

/// `dclab gen <family> [flags]` — generate one instance to stdout/file, or
/// a `--count` corpus into a directory.
pub fn gen_cmd(args: &[String]) -> Result<(), String> {
    let (family, opts) = parse_gen_opts(args)?;
    let Some(family) = family else {
        print!("{GEN_HELP}");
        return Ok(());
    };
    if opts.count == 0 {
        return Err("--count must be at least 1".into());
    }
    if opts.count == 1 {
        let g = build(&family, &opts, opts.seed)?;
        let text = graph_io::serialize(&g, opts.format);
        match &opts.out {
            Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?,
            None => print!("{text}"),
        }
        return Ok(());
    }
    let dir = opts.out.as_deref().ok_or("--count > 1 needs --out <dir>")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let width = opts.count.to_string().len();
    for i in 0..opts.count {
        let g = build(&family, &opts, opts.seed.wrapping_add(i as u64))?;
        let name = format!(
            "{family}-s{}-{i:0width$}.{}",
            opts.seed,
            extension(opts.format),
            width = width
        );
        let path = std::path::Path::new(dir).join(&name);
        std::fs::write(&path, graph_io::serialize(&g, opts.format))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    eprintln!("wrote {} {} instances to {dir}", opts.count, family);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn families_build_deterministically() {
        for family in [
            "path",
            "cycle",
            "complete",
            "star",
            "wheel",
            "petersen",
            "grid",
            "bipartite",
            "multipartite",
            "split",
            "gnp",
            "gnm",
            "tree",
            "ba",
            "ws",
            "cograph",
            "rsplit",
            "smalldiam",
        ] {
            let opts = GenOpts::default();
            let a = build(family, &opts, 7).unwrap_or_else(|e| panic!("{family}: {e}"));
            let b = build(family, &opts, 7).unwrap();
            assert_eq!(a, b, "{family} deterministic under seed");
            a.validate().unwrap_or_else(|e| panic!("{family}: {e}"));
        }
    }

    #[test]
    fn gnp_with_diameter_cap_respects_it() {
        let opts = GenOpts {
            n: 14,
            prob: 0.6,
            max_diameter: Some(2),
            ..GenOpts::default()
        };
        let g = build("gnp", &opts, 3).unwrap();
        assert!(dclab_graph::diameter::diameter(&g).unwrap() <= 2);
    }

    #[test]
    fn smalldiam_target_n_overrides_n_and_stays_diameter_two() {
        let opts = GenOpts {
            target_n: Some(300),
            core: 16,
            extra: 0.02,
            ..GenOpts::default()
        };
        let g = build("smalldiam", &opts, 9).unwrap();
        assert_eq!(g.n(), 300);
        assert_eq!(dclab_graph::diameter::diameter(&g).unwrap(), 2);
        assert!(build(
            "smalldiam",
            &GenOpts {
                core: 0,
                ..GenOpts::default()
            },
            1
        )
        .is_err());
    }

    #[test]
    fn bad_flags_and_families_are_rejected() {
        assert!(parse_gen_opts(&args(&["gnp", "--frobnicate", "1"])).is_err());
        assert!(parse_gen_opts(&args(&["gnp", "--n"])).is_err());
        let opts = GenOpts::default();
        assert!(build("nope", &opts, 1).is_err());
        assert!(build(
            "ws",
            &GenOpts {
                k: 3,
                ..GenOpts::default()
            },
            1
        )
        .is_err());
    }
}
