//! `serve-report`: serving with cache writes beside reads. An in-process
//! `apx_serve::Server` on `127.0.0.1:0` with a fresh cache directory
//! answers one client connection at a time, `GET
//! /report/<config>?seed=<n>`. Most requests repeat a key served during
//! set-up (hits: HTTP, singleflight, cache read, JSON render); one per
//! block of four is a fresh key (a miss: the full characterizer plus the
//! cache writes).

use crate::layers::Layers;
use crate::measure::{alternate, repeat_set_up, untraced_run, Budget, Outcome, Recorder, Repeats};
use crate::pipeline::{characterize_traced, WorkLedger};
use crate::plan::{KeyStream, Request, BLOCK};
use crate::trace::Tracer;
use crate::{work_dir, Args};
use apx_cache::Cache;
use apx_cells::Library;
use apx_core::cache::report_cache_key;
use apx_core::output::family;
use apx_core::query::{self, QueryParams};
use apx_core::{Characterizer, OperatorReport};
use apx_engine::Engine;
use apx_serve::{Server, ServerConfig, ServerHandle};
use serde::Value;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests in one pass: 25 whole blocks, so every pass holds the
/// planned hit share. A pass is the unit of CPU rotation, of timing and
/// of the traced run's comparison and counting; at about 0.5 s it keeps
/// CPU migrations rare and outside the timed requests.
const PASS: usize = 25 * BLOCK;

/// The in-process daemon, drained and joined on drop.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache: Cache::builder().dir(dir.join("cache")).open(),
            engine: Engine::new(1),
            defaults: QueryParams::default(),
            watch_signals: false,
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            thread: Some(thread),
            dir,
        })
    }

    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.request_shutdown();
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                eprintln!("serve thread panicked");
            }
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// One HTTP/1.1 exchange on a fresh connection: status and body.
fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
    stream.set_nodelay(true).ok();
    let head = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response lacks a header/body separator")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or("response lacks a status code")?;
    Ok((status, body.to_owned()))
}

fn report_path(req: &Request) -> String {
    let spec: String = req
        .config
        .to_string()
        .bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() {
                char::from(b).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect();
    format!("/report/{spec}?seed={}", req.seed)
}

fn params(req: &Request) -> QueryParams {
    QueryParams {
        seed: Some(req.seed),
        ..QueryParams::default()
    }
}

/// The library's body for `req`: `report.to_json()` plus the newline the
/// server appends, computed without any cache.
fn library_body(lib: &Library, engine: &Engine, req: &Request) -> String {
    let (body, _hit) = query::report_text(
        lib,
        &params(req),
        &req.config.to_string(),
        engine,
        &Cache::default(),
    )
    .expect("planned configs parse");
    body
}

/// A top-level unsigned field of one of the daemon's JSON bodies.
fn json_u64(body: &str, name: &str) -> Result<u64, String> {
    let value: Value = serde_json::from_str(body).map_err(|e| format!("{e}: {body}"))?;
    let field = value
        .as_object()
        .and_then(|fields| fields.iter().find(|(key, _)| key == name))
        .map(|(_, v)| v);
    match field {
        Some(Value::UInt(n)) => u64::try_from(*n).map_err(|e| e.to_string()),
        _ => Err(format!("no unsigned `{name}` in {body}")),
    }
}

/// The counters the run reconciles against its plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    serve_hits: u64,
    serve_misses: u64,
    coalesced: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_writes: u64,
    cache_bytes: u64,
}

impl Counters {
    fn read(addr: SocketAddr) -> Result<Counters, String> {
        let (s1, stats) = get(addr, "/stats")?;
        let (s2, cache) = get(addr, "/cache/stats")?;
        if s1 != 200 || s2 != 200 {
            return Err(format!("stats endpoints answered {s1} and {s2}"));
        }
        Ok(Counters {
            serve_hits: json_u64(&stats, "hits")?,
            serve_misses: json_u64(&stats, "misses")?,
            coalesced: json_u64(&stats, "coalesced")?,
            cache_hits: json_u64(&cache, "hits")?,
            cache_misses: json_u64(&cache, "misses")?,
            cache_writes: json_u64(&cache, "writes")?,
            cache_bytes: json_u64(&cache, "bytes")?,
        })
    }

    /// What `hits` repeated and `misses` fresh requests must add.
    fn planned(self, hits: u64, misses: u64) -> Counters {
        Counters {
            serve_hits: self.serve_hits + hits,
            serve_misses: self.serve_misses + misses,
            coalesced: self.coalesced,
            cache_hits: self.cache_hits + hits,
            cache_misses: self.cache_misses + misses,
            cache_writes: self.cache_writes + misses,
            cache_bytes: 0,
        }
    }

    fn without_bytes(self) -> Counters {
        Counters {
            cache_bytes: 0,
            ..self
        }
    }
}

struct Bench {
    lib: Library,
    /// The engine the library-side checks run on.
    engine: Engine,
    daemon: Daemon,
    keys: KeyStream,
    /// Library bodies of the hot keys.
    expected: HashMap<(String, u64), String>,
    hits: u64,
    misses: u64,
}

fn body_key(req: &Request) -> (String, u64) {
    (req.config.to_string(), req.seed)
}

/// Binds a daemon on a fresh cache and serves the hot keys once.
fn set_up(seed: u64, dir: PathBuf) -> Result<Bench, String> {
    let daemon = Daemon::start(dir)?;
    let keys = KeyStream::new(seed);
    let hot = keys.hot().len() as u64;
    for req in keys.hot() {
        let (status, _) = get(daemon.addr, &report_path(req))?;
        if status != 200 {
            return Err(format!(
                "set-up request {} answered {status}",
                report_path(req)
            ));
        }
    }
    Ok(Bench {
        lib: Library::fdsoi28(),
        engine: Engine::new(1),
        daemon,
        keys,
        expected: HashMap::new(),
        hits: 0,
        misses: hot,
    })
}

/// Serves one request and checks it outside the timed span: HTTP 200
/// and the library's body. Returns the latency, the verdict and the
/// served body.
fn serve(bench: &mut Bench, req: &Request) -> (Duration, bool, String) {
    let t = Instant::now();
    let response = get(bench.daemon.addr, &report_path(req));
    let latency = t.elapsed();
    if req.fresh {
        bench.misses += 1;
    } else {
        bench.hits += 1;
    }
    let Ok((status, body)) = response else {
        return (latency, false, String::new());
    };
    let expected = if req.fresh {
        library_body(&bench.lib, &bench.engine, req)
    } else {
        let (lib, engine) = (&bench.lib, &bench.engine);
        bench
            .expected
            .entry(body_key(req))
            .or_insert_with(|| library_body(lib, engine, req))
            .clone()
    };
    (latency, status == 200 && body == expected, body)
}

fn pass(bench: &mut Bench, rec: &mut Recorder, budget: Option<&Budget>) -> bool {
    rec.pass(PASS, budget, |_| {
        let req = bench.keys.next().expect("key stream is endless");
        let (latency, good, _) = serve(bench, &req);
        (req.work, latency, good)
    })
}

/// Per-layer state of the traced passes.
struct Traced {
    tracer: Tracer,
    replay: Cache,
    work: WorkLedger,
    counted: WorkLedger,
    hit_ns: Vec<u64>,
    miss_ns: Vec<u64>,
    replay_ns: Vec<u64>,
    decomposed: bool,
}

/// Serves one request, then replays its library side under spans: for
/// a hit, key + cache read + render against the daemon's own cache
/// directory; for a miss, the piecewise characterization, render and a
/// cache write into a replay directory. The replayed body must equal
/// the served one byte for byte.
fn serve_traced(
    bench: &mut Bench,
    t: &mut Traced,
    req: &Request,
    counting: bool,
) -> (Duration, bool) {
    let (latency, good, body) = serve(bench, req);
    let settings = params(req).settings();
    let tag = family(&req.config);
    let start = Instant::now();
    let key = t.tracer.span("cache.key", tag, || {
        report_cache_key(&bench.lib, &settings, &req.config)
    });
    let report: Option<OperatorReport> = if req.fresh {
        let chz = Characterizer::new(&bench.lib)
            .with_settings(settings)
            .with_engine(bench.engine.clone());
        let pieces = characterize_traced(&chz, &bench.lib, &req.config, &mut t.tracer);
        t.work.add(tag, &pieces.work);
        if counting {
            t.counted.add(tag, &pieces.work);
        }
        Some(OperatorReport {
            config: req.config,
            name: req.config.build().name(),
            verified: pieces.verified,
            error: pieces.error,
            hw: pieces.hw,
        })
    } else {
        let server_cache = Cache::builder().dir(bench.daemon.cache_dir()).open();
        t.tracer.span("cache.get", tag, || {
            server_cache.get::<OperatorReport>(&key)
        })
    };
    let replayed = t.tracer.span("core.report_json", tag, || {
        report
            .as_ref()
            .and_then(|r| r.to_json().ok())
            .map(|json| format!("{json}\n"))
    });
    if req.fresh {
        if let Some(report) = &report {
            t.tracer
                .span("cache.put", tag, || t.replay.put(&key, report));
        }
        t.miss_ns.push(latency.as_nanos() as u64);
    } else {
        t.replay_ns.push(start.elapsed().as_nanos() as u64);
        t.hit_ns.push(latency.as_nanos() as u64);
    }
    let identical = replayed.as_deref() == Some(body.as_str());
    t.decomposed &= identical;
    (latency, good && identical)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = work_dir().join(format!("serve-{}", std::process::id()));
    // each daemon drains and removes its directory before the next binds
    let (setups, mut bench) = repeat_set_up(|k| set_up(args.seed, dir.join(k.to_string())))?;
    let before = Counters::read(bench.daemon.addr)?;
    let (hits0, misses0) = (bench.hits, bench.misses);

    let mut outcome = if args.trace {
        run_traced(args, &mut bench, &dir)?
    } else {
        untraced_run(
            &setups,
            args.seconds,
            Repeats::MedianPerCpu,
            |rec, budget| pass(&mut bench, rec, budget),
        )
    };

    // exact reconciliation: the daemon saw precisely the planned stream
    let after = Counters::read(bench.daemon.addr)?;
    let planned = before.planned(bench.hits - hits0, bench.misses - misses0);
    let reconciled = after.without_bytes() == planned;
    outcome.notes.push(format!(
        "requests: {} hits, {} misses; daemon counters {} planned",
        bench.hits,
        bench.misses,
        if reconciled { "match" } else { "DO NOT match" },
    ));
    if !reconciled {
        outcome
            .notes
            .push(format!("planned {planned:?}, daemon {after:?}"));
    }
    drop(bench);
    std::fs::remove_dir_all(&dir).ok();
    outcome.correct &= reconciled;
    Ok(outcome)
}

fn run_traced(args: &Args, bench: &mut Bench, dir: &Path) -> Result<Outcome, String> {
    let mut t = Traced {
        tracer: Tracer::new(),
        replay: Cache::builder().dir(dir.join("replay")).open(),
        work: WorkLedger::default(),
        counted: WorkLedger::default(),
        hit_ns: Vec::new(),
        miss_ns: Vec::new(),
        replay_ns: Vec::new(),
        decomposed: true,
    };
    let mut layers = Layers::new();
    let mut op = 0u64;
    // the first traced pass supplies the counts
    let passes = alternate(args.seconds, |rec, traced| {
        if !traced {
            pass(bench, rec, None);
            return Ok(());
        }
        let counting = rec.passes == 0;
        let start = if counting {
            Some(Counters::read(bench.daemon.addr)?)
        } else {
            None
        };
        rec.pass(PASS, None, |_| {
            let req = bench.keys.next().expect("key stream is endless");
            t.tracer.set_op(op);
            op += 1;
            let (latency, good) = serve_traced(bench, &mut t, &req, counting);
            (req.work, latency, good)
        });
        if let Some(start) = start {
            let end = Counters::read(bench.daemon.addr)?;
            layers.set("cache.hits", (end.cache_hits - start.cache_hits) as f64);
            layers.set(
                "cache.misses",
                (end.cache_misses - start.cache_misses) as f64,
            );
            layers.set(
                "cache.writes",
                (end.cache_writes - start.cache_writes) as f64,
            );
            layers.set("cache.bytes", (end.cache_bytes - start.cache_bytes) as f64);
            layers.set("serve.coalesced", (end.coalesced - start.coalesced) as f64);
        }
        Ok(())
    })?;
    layers.set_pipeline(&t.tracer, &t.work, &t.counted);
    let totals = t.tracer.totals();
    let mean_us = |name: &'static str| {
        let (ns, n) = totals
            .iter()
            .filter(|((n, _), _)| *n == name)
            .fold((0u64, 0u64), |(ns, n), (_, v)| {
                (ns + v.self_ns, n + v.spans)
            });
        if n == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / n as f64
        }
    };
    let mean_ms = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e6 / v.len() as f64;
    layers.set("cache.key_us", mean_us("cache.key"));
    layers.set("cache.get_us", mean_us("cache.get"));
    layers.set("core.report_json_us", mean_us("core.report_json"));
    layers.set("cache.put_us", mean_us("cache.put"));
    layers.set("serve.report_hit_ms", mean_ms(&t.hit_ns));
    layers.set("serve.report_miss_ms", mean_ms(&t.miss_ns));
    layers.set(
        "serve.http_overhead_ms",
        mean_ms(&t.hit_ns) - mean_ms(&t.replay_ns),
    );
    layers.set("trace.overhead_share", passes.overhead_share());
    Ok(crate::finish_traced(
        args,
        &t.tracer,
        layers,
        &passes.all(),
        t.decomposed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_percent_encode_the_paper_notation() {
        let req = Request {
            config: apx_operators::OperatorConfig::Aca { n: 16, p: 4 },
            seed: 9,
            fresh: true,
            work: 0,
        };
        assert_eq!(report_path(&req), "/report/ACA%2816%2C4%29?seed=9");
    }

    #[test]
    fn counters_are_top_level_fields() {
        // `/stats` nests cache counters under the same names
        let body = "{\"hits\": 12, \"cache\": {\"misses\": 9, \"hits\": 4}, \"misses\": 3}\n";
        assert_eq!(json_u64(body, "hits"), Ok(12));
        assert_eq!(json_u64(body, "misses"), Ok(3));
        assert!(json_u64(body, "writes").is_err());
        assert!(json_u64("not json", "hits").is_err());
    }
}
