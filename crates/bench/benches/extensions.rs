//! Criterion micro-benches over the extension subsystems: stochastic
//! policies under both workload shapes and the SQL front-end pipeline.

use cracker_core::stochastic::{StochasticCracker, StochasticPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sql::SqlSession;
use workload::sequential::{adversarial_sequence, Adversary};
use workload::strolling::{strolling_sequence, StrollMode};
use workload::{Contraction, Tapestry, Window};

const N: usize = 200_000;
const K: usize = 64;

fn column() -> Vec<i64> {
    Tapestry::generate(N, 1, 0xE47).column(0).to_vec()
}

/// Stochastic policies, crossed with a random and a sequential workload.
fn stochastic(c: &mut Criterion) {
    let vals = column();
    let workloads: [(&str, Vec<Window>); 2] = [
        (
            "random",
            strolling_sequence(
                N,
                K,
                0.02,
                Contraction::Linear,
                StrollMode::RandomWithReplacement,
                5,
            ),
        ),
        (
            "seq-asc",
            adversarial_sequence(N, K, Adversary::SequentialAsc),
        ),
    ];
    let mut g = c.benchmark_group("ext_stochastic");
    g.sample_size(10);
    for (wl, seq) in &workloads {
        for policy in [
            StochasticPolicy::Vanilla,
            StochasticPolicy::DD1R,
            StochasticPolicy::DDR { floor: 2_048 },
        ] {
            g.bench_with_input(BenchmarkId::new(*wl, policy.label()), seq, |b, seq| {
                b.iter(|| {
                    let mut col = StochasticCracker::new(vals.clone(), policy, 7);
                    for w in seq {
                        col.select(w.to_pred());
                    }
                    col.total_touched()
                })
            });
        }
    }
    g.finish();
}

/// The SQL pipeline end to end: parse + lower + cracked execution.
fn sql_pipeline(c: &mut Criterion) {
    let vals = column();
    let mut g = c.benchmark_group("ext_sql");
    g.sample_size(10);
    g.bench_function("parse_only", |b| {
        b.iter(|| {
            sql::parse(
                "select k, count(*) from r where a >= 10 and a < 500 \
                 or a between 900 and 999 group by k",
            )
            .unwrap()
        })
    });
    g.bench_function("session_select", |b| {
        let mut session = SqlSession::new();
        session
            .load_table("r", vec![("a".into(), vals.clone())])
            .unwrap();
        let mut lo = 0i64;
        b.iter(|| {
            lo = (lo + 97) % (N as i64 - 1_000);
            let sqltext = format!(
                "select count(*) from r where a >= {lo} and a < {}",
                lo + 1_000
            );
            session.execute_one(&sqltext).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, stochastic, sql_pipeline);
criterion_main!(benches);
