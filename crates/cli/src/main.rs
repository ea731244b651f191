//! `dclab` — unified CLI: engine-backed instance solving plus the paper's
//! experiment tables.
//!
//! ```text
//! dclab solve <file> [--p 2,1] [--strategy auto] [--format edgelist|dimacs]
//!                    [--node-budget N] [--restarts N]
//!      # solve one instance file, print a JSON SolveReport line
//! dclab batch <dir>  [same flags]
//!      # solve every instance file in <dir> in parallel (DCLAB_THREADS),
//!      # one JSON line per instance, deterministic order
//! dclab serve [--addr host:port] [--workers N] [--cache-mb M]
//!             [--store-path archive] [--cluster a,b,...]
//!      # long-running HTTP solve service with a canonical-instance report
//!      # cache (POST /solve, POST /batch, GET /healthz, GET /metrics);
//!      # epoll-reactor core, Linux only (thousands of keep-alive connections
//!      # on a handful of workers); --cluster consistent-hashes canonical
//!      # instances across replicas; --store-path warm-boots the cache from
//!      # a persistent archive and write-behinds fresh solves
//! dclab loadgen --addrs a,b [--connections N] [--duration-ms D]
//!      # concurrent multi-replica soak against running servers; prints
//!      # latency percentiles, hit rate, routing tallies as one JSON line
//! dclab gen <family> [--n N] [--seed S] [--count C] [--out PATH]
//!      # seeded instance corpora from graph::generators (gnp, trees,
//!      # split graphs, classic families, ...)
//! dclab store stats|compact|export|import <archive> [args]
//!      # manage a persistent solution archive offline
//! dclab oracle build <file> [--format edgelist|dimacs]
//!      # build a hub-label distance oracle offline, print its statistics
//! dclab trace export --chrome <trace.json> [--out PATH]
//!      # convert a solve trace (from `solve --trace` or
//!      # GET /debug/traces/<id>) to Chrome trace_event JSON
//!
//! dclab e1   # reduction correctness (Thm 2 / Claim 1 / Fig. 1)
//! dclab e2   # exact scaling (Cor 1a: Held–Karp vs oracle)
//! dclab e3   # 1.5-approximation quality (Cor 1b)
//! dclab e4   # heuristic quality & speed at scale (§I-A practical route)
//! dclab e5   # diameter-2 L(p,q) via Partition into Paths (Cor 2 / Fig. 2)
//! dclab e6   # L(1,1) via coloring G², nd-FPT engine (Thm 4)
//! dclab e7   # p_max-approximation measured ratios (Cor 3)
//! dclab e8   # ablations (neighbor lists, don't-look bits, kicks, matching)
//! dclab all  # every experiment
//! ```
//!
//! `--quick` shrinks the experiment sweeps for smoke runs.

mod bench_gate;
mod commands;
mod experiments;
mod gen;
mod oracle_cmd;
mod store_cmd;
mod trace_cmd;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    if args.iter().any(|a| a == "--help" || a == "-h") || first == Some("help") {
        // A subcommand with a help text of its own prints that text.
        let help = match first {
            Some("bench-gate") => bench_gate::GATE_HELP,
            Some("gen") => gen::GEN_HELP,
            Some("store") => store_cmd::STORE_HELP,
            _ => commands::HELP,
        };
        print!("{help}");
        return;
    }
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    match which {
        "solve" | "batch" | "serve" | "loadgen" | "gen" | "store" | "oracle" | "trace"
        | "bench-gate" => {
            let rest: Vec<String> = args
                .iter()
                .skip_while(|a| a.as_str() != which)
                .skip(1)
                .cloned()
                .collect();
            let result = match which {
                "solve" => commands::solve_cmd(&rest),
                "batch" => commands::batch_cmd(&rest),
                "gen" => gen::gen_cmd(&rest),
                "store" => store_cmd::store_cmd(&rest),
                "oracle" => oracle_cmd::oracle_cmd(&rest),
                "trace" => trace_cmd::trace_cmd(&rest),
                "bench-gate" => bench_gate::bench_gate_cmd(&rest),
                "loadgen" => commands::loadgen_cmd(&rest),
                _ => commands::serve_cmd(&rest),
            };
            if let Err(e) = result {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        _ => run_experiments(which, &args),
    }
}

fn run_experiments(which: &str, args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let run = |name: &str| which == "all" || which == name;
    let mut ran = false;
    if run("e1") {
        experiments::e1_reduction::run(quick);
        ran = true;
    }
    if run("e2") {
        experiments::e2_exact_scaling::run(quick);
        ran = true;
    }
    if run("e3") {
        experiments::e3_approx::run(quick);
        ran = true;
    }
    if run("e4") {
        experiments::e4_heuristics::run(quick);
        ran = true;
    }
    if run("e5") {
        experiments::e5_diam2::run(quick);
        ran = true;
    }
    if run("e6") {
        experiments::e6_l1::run(quick);
        ran = true;
    }
    if run("e7") {
        experiments::e7_pmax::run(quick);
        ran = true;
    }
    if run("e8") {
        experiments::e8_ablation::run(quick);
        ran = true;
    }
    if !ran {
        eprintln!(
            "unknown command '{which}'; use solve <file>, batch <dir>, serve, gen, store, \
             oracle, trace, bench-gate, e1..e8 or all (experiments take --quick; see --help)"
        );
        std::process::exit(2);
    }
}
