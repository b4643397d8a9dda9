//! Interactive SQL over a self-cracking store.
//!
//! ```sh
//! cargo run --release --example sql_repl            # empty session
//! echo "select count(*) from r where a < 500;" | \
//!   cargo run --release --example sql_repl -- --demo
//! ```
//!
//! With `--demo`, the session is preloaded with a 100k-row tapestry table
//! `r(k, a)` so range queries can be fired immediately. After every
//! statement the REPL reports how far the store has cracked itself — the
//! paper's "incremental buildup of a search accelerator, driven by actual
//! queries" (§2.2), watchable live.
//!
//! Meta-commands: `\d` lists tables, `\stats` prints crack statistics and
//! the plan cache's counters, `\q` quits.

use dbcracker::prelude::*;
use std::io::{self, BufRead, Write};

fn main() {
    let demo = std::env::args().any(|a| a == "--demo");
    let mut session = SqlSession::new();
    if demo {
        let n = 100_000;
        eprintln!("loading demo table r(k, a) with {n} rows ...");
        let t = Tapestry::generate(n, 2, 42);
        session
            .load_table(
                "r",
                vec![
                    ("k".into(), t.column(0).to_vec()),
                    ("a".into(), t.column(1).to_vec()),
                ],
            )
            .expect("fresh session has no table r");
    }
    eprintln!("dbcracker SQL — statements end with ';', \\q quits");

    let stdin = io::stdin();
    let mut buffer = String::new();
    let mut out = io::stdout();
    loop {
        if buffer.is_empty() {
            eprint!("sql> ");
        } else {
            eprint!("  -> ");
        }
        io::stderr().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        match trimmed {
            "\\q" => break,
            "\\d" => {
                let db = session.adaptive();
                for name in db.catalog().names() {
                    let t = db.catalog().table(name).expect("listed");
                    println!(
                        "{name}({}) — {} rows",
                        t.schema().names().join(", "),
                        db.live_rows(name).expect("listed")
                    );
                }
                continue;
            }
            "\\stats" => {
                let s = session.adaptive().total_crack_stats();
                let plans = session.plan_cache_stats();
                println!(
                    "queries={} cracks={} tuples_touched={} tuples_moved={} \
                     cracked_columns={} plan_hits={} plan_misses={} plan_declined={} \
                     plan_evictions={} plan_entries={}",
                    s.queries,
                    s.cracks,
                    s.tuples_touched,
                    s.tuples_moved,
                    session.cracked_columns(),
                    plans.hits,
                    plans.misses,
                    plans.declined,
                    plans.evictions,
                    plans.entries
                );
                continue;
            }
            _ => {}
        }
        buffer.push_str(&line);
        // Execute once the buffer holds a complete (';'-terminated)
        // statement list.
        if !buffer.trim_end().ends_with(';') && !buffer.trim().is_empty() {
            continue;
        }
        let src = std::mem::take(&mut buffer);
        if src.trim().is_empty() {
            continue;
        }
        match session.execute(&src) {
            Ok(outputs) => {
                for o in outputs {
                    writeln!(out, "{o}").ok();
                }
                let s = session.adaptive().total_crack_stats();
                eprintln!(
                    "[cracked columns: {}, cracks so far: {}]",
                    session.cracked_columns(),
                    s.cracks
                );
            }
            Err(e) => eprintln!("{}", e.render(&src)),
        }
    }
    eprintln!("bye");
}
