//! `mbb serve-batch` — run a JSONL request batch against a sharded
//! engine fleet.

use std::time::Instant;

use mbb_serve::jsonl::{encode_report, parse_requests};
use mbb_serve::{ShardedFleet, StreamConfig, StreamServer};
use mbb_store::GraphStore;

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb serve-batch --shard <id>=<edge-list-file> [--shard ...]
                       --requests <jsonl-file> [--workers <N>] [--stats]

Builds one engine session per --shard (routable by its <id>), reads one
JSON request per line from the --requests file, admits the whole file to
the same deadline-soonest queue `mbb serve` uses, and prints one JSON
line per request in request order. A request's deadline_ms counts from
admission: a zero budget, or one that runs out while queued, is
answered with {\"error_kind\": \"shed\"} and never executed. --workers 0
uses one worker per core (default 1). --stats appends a final
{\"batch\": ...} summary line.

Shards load through the graph store: a fresh .mbbg binary cache next to
an edge list (see `mbb ingest`) is used instead of re-parsing, and a
shard file may itself be a .mbbg path. MBB_CACHE=off disables caching.

The request/response schema (nine query kinds, per-request deadline_ms
and threads, 1-based vertex ids) is documented in docs/SERVING.md.
Example request file:

  {\"id\": 1, \"graph\": \"a\", \"kind\": \"solve\", \"deadline_ms\": 500}
  {\"id\": 2, \"graph\": \"b\", \"kind\": \"topk\", \"k\": 3}
  {\"id\": 3, \"kind\": \"anchored\", \"side\": \"left\", \"vertex\": 4}";

/// Parsed `serve-batch` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeBatchOptions {
    /// `(shard id, edge-list path)` pairs, in registration order.
    pub shards: Vec<(String, String)>,
    /// Path of the JSONL request file.
    pub requests: String,
    /// Worker pool size (0 = one per core).
    pub workers: usize,
    /// Append the batch summary line.
    pub stats: bool,
}

impl ServeBatchOptions {
    /// Parses the subcommand's argv (after `serve-batch`).
    pub fn parse(args: &[String]) -> Result<ServeBatchOptions, String> {
        let mut options = ServeBatchOptions {
            shards: Vec::new(),
            requests: String::new(),
            workers: 1,
            stats: false,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value_of = |flag: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--stats" => options.stats = true,
                "--shard" => {
                    let value = value_of("--shard")?;
                    let (id, path) = value
                        .split_once('=')
                        .ok_or_else(|| format!("--shard: expected <id>=<file>, got {value:?}"))?;
                    if id.is_empty() || path.is_empty() {
                        return Err(format!("--shard: expected <id>=<file>, got {value:?}"));
                    }
                    options.shards.push((id.to_string(), path.to_string()));
                }
                "--requests" => options.requests = value_of("--requests")?,
                "--workers" => {
                    let value = value_of("--workers")?;
                    options.workers = value
                        .parse()
                        .map_err(|_| format!("--workers: bad number {value:?}"))?;
                }
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        if options.shards.is_empty() {
            return Err("at least one --shard <id>=<file> is required".to_string());
        }
        if options.requests.is_empty() {
            return Err("--requests <jsonl-file> is required".to_string());
        }
        Ok(options)
    }
}

/// Runs the subcommand, returning the rendered JSONL output.
pub fn run(options: &ServeBatchOptions) -> Result<String, String> {
    // Shards resolve through the store: a warm .mbbg cache next to the
    // edge list skips the parse entirely (MBB_CACHE=off opts out).
    let store = GraphStore::from_env();
    let mut fleet = ShardedFleet::new();
    for (id, path) in &options.shards {
        fleet
            .add_shard_from_store(id.clone(), &store, path)
            .map_err(|e| e.to_string())?;
    }
    let text = std::fs::read_to_string(&options.requests)
        .map_err(|e| format!("{}: {e}", options.requests))?;
    let requests = parse_requests(&text).map_err(|e| e.to_string())?;
    let config = StreamConfig {
        workers: options.workers,
        ..StreamConfig::default()
    };
    let server = StreamServer::new(fleet, config);
    let started = Instant::now();
    let (events, stats) = server.run_batch(requests);
    let wall_clock = started.elapsed();
    Ok(encode_report(
        &events,
        options.stats.then_some((&stats, wall_clock)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<ServeBatchOptions, String> {
        ServeBatchOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_shards_and_requests() {
        let o = parse("--shard a=x.txt --shard b=y.txt --requests r.jsonl --workers 0 --stats")
            .unwrap();
        assert_eq!(
            o.shards,
            vec![
                ("a".to_string(), "x.txt".to_string()),
                ("b".to_string(), "y.txt".to_string())
            ]
        );
        assert_eq!(o.requests, "r.jsonl");
        assert_eq!(o.workers, 0);
        assert!(o.stats);
    }

    #[test]
    fn requires_shards_and_requests() {
        assert!(parse("--requests r.jsonl").is_err());
        assert!(parse("--shard a=x.txt").is_err());
        assert!(parse("--shard ax.txt --requests r.jsonl").is_err());
        assert!(parse("--shard =x.txt --requests r.jsonl").is_err());
    }

    #[test]
    fn end_to_end_over_temp_files() {
        let dir = std::env::temp_dir().join("mbb-serve-batch-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        // K2,2 plus a pendant edge, 1-based KONECT ids.
        std::fs::write(&graph_path, "1 1\n1 2\n2 1\n2 2\n3 3\n").unwrap();
        let requests_path = dir.join("r.jsonl");
        std::fs::write(
            &requests_path,
            "{\"id\": 1, \"graph\": \"g\", \"kind\": \"solve\"}\n\
             {\"id\": 2, \"kind\": \"topk\", \"k\": 2}\n",
        )
        .unwrap();
        let options = parse(&format!(
            "--shard g={} --requests {} --stats",
            graph_path.display(),
            requests_path.display()
        ))
        .unwrap();
        let output = run(&options).unwrap();
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 3, "2 responses + stats line:\n{output}");
        assert!(
            lines[0].contains("\"termination\":\"complete\""),
            "{output}"
        );
        assert!(lines[0].contains("\"half_size\":2"), "{output}");
        assert!(lines[2].contains("\"batch\""), "{output}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
