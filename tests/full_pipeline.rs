//! End-to-end integration: deploy the software stack, run a mixed batch of
//! jobs through the scheduler on the simulated machine with monitoring
//! enabled, and consume the results through accounting and the JSON query
//! interface — the full production path of the paper's cluster.

use monte_cimone::cluster::engine::{ClusterWorkload, EngineConfig, JobRequest, SimEngine};
use monte_cimone::cluster::experiments::software_stack;
use monte_cimone::cluster::perf::HplProblem;
use monte_cimone::monitor::query::{evaluate, QueryRequest};
use monte_cimone::monitor::tsdb::Aggregation;
use monte_cimone::sched::job::JobState;
use monte_cimone::soc::units::{SimDuration, SimTime};
use monte_cimone::soc::workload::Workload;

fn engine() -> SimEngine {
    SimEngine::new(EngineConfig::default())
}

#[test]
fn stack_then_jobs_then_queries() {
    // 1. The software stack deploys (Table I).
    let stack = software_stack::run().expect("stack concretises");
    assert!(stack.modules.iter().any(|m| m.starts_with("hpl/2.3")));

    // 2. A mixed batch: one multi-node HPL, one QE LAX, two STREAM runs.
    let mut engine = engine();
    let hpl = engine
        .submit(JobRequest {
            name: "hpl".into(),
            user: "alice".into(),
            nodes: 4,
            workload: ClusterWorkload::Hpl(HplProblem::new(4096, 192)),
        })
        .expect("fits");
    let qe = engine
        .submit(JobRequest {
            name: "qe-lax".into(),
            user: "bob".into(),
            nodes: 1,
            workload: ClusterWorkload::QeLax,
        })
        .expect("fits");
    for name in ["stream-ddr", "stream-l2"] {
        let workload = if name.ends_with("ddr") {
            ClusterWorkload::StreamDdr { secs: 20 }
        } else {
            ClusterWorkload::StreamL2 { secs: 20 }
        };
        engine
            .submit(JobRequest {
                name: name.into(),
                user: "bob".into(),
                nodes: 1,
                workload,
            })
            .expect("fits");
    }

    let drained = engine.run_until_idle(SimDuration::from_secs(600));
    assert!(drained, "all four jobs should finish");

    // 3. Accounting shows four completed jobs with energy attached.
    let records = engine.accounting().records();
    assert_eq!(records.len(), 4);
    for record in records {
        assert_eq!(record.state, JobState::Completed);
        assert!(record.energy.expect("energy accounted").as_joules() > 0.0);
    }
    assert_eq!(engine.accounting().by_user("bob").count(), 3);
    assert_eq!(
        engine.scheduler().job(hpl).expect("known").state(),
        JobState::Completed
    );
    assert_eq!(
        engine.scheduler().job(qe).expect("known").state(),
        JobState::Completed
    );

    // 4. The monitoring store answers a REST-style JSON query.
    let request = QueryRequest {
        filter: "org/unibo/cluster/cimone/node/+/plugin/pwr_pub/chnl/data/total_power".into(),
        from_secs: 0.0,
        to_secs: engine.now().as_secs_f64(),
        bin_secs: Some(5.0),
        aggregation: Some(Aggregation::Mean),
    };
    let response = evaluate(engine.store(), &request).expect("valid query");
    assert_eq!(response.series.len(), 8, "one power series per node");
    for series in &response.series {
        assert!(!series.points.is_empty());
        // Node power always sits between deep idle and the HPL envelope.
        for (_, watts) in &series.points {
            assert!((4.0..7.0).contains(watts), "{}: {watts} W", series.name);
        }
    }

    // 5. The pmu counters of a node that ran HPL advanced monotonically.
    let series = "org/unibo/cluster/cimone/node/mc-node-01/plugin/pmu_pub/chnl/data/core/0/instret";
    let points = engine.store().query(series, SimTime::ZERO, engine.now());
    assert!(points.len() > 10);
    assert!(points.values().windows(2).all(|w| w[1] >= w[0]));
}

#[test]
fn utilisation_accounting_is_consistent() {
    let mut engine = engine();
    engine
        .submit(JobRequest {
            name: "full".into(),
            user: "ops".into(),
            nodes: 8,
            workload: ClusterWorkload::Synthetic {
                workload: Workload::Hpl,
                secs: 50,
            },
        })
        .expect("fits");
    assert!(engine.run_until_idle(SimDuration::from_secs(200)));
    let horizon = engine.now().saturating_since(SimTime::ZERO);
    let utilisation = engine.accounting().utilisation(8, horizon);
    // 8 nodes busy 50 s of ~51 s simulated: utilisation close to 1.
    assert!(utilisation > 0.9, "utilisation {utilisation}");
}

#[test]
fn backfill_runs_small_jobs_alongside_wide_queue_head() {
    let mut engine = engine();
    let wide_long = engine
        .submit(JobRequest {
            name: "wide-long".into(),
            user: "ops".into(),
            nodes: 6,
            workload: ClusterWorkload::Synthetic {
                workload: Workload::Hpl,
                secs: 300,
            },
        })
        .expect("fits");
    let full_next = engine
        .submit(JobRequest {
            name: "full-next".into(),
            user: "ops".into(),
            nodes: 8,
            workload: ClusterWorkload::Synthetic {
                workload: Workload::Hpl,
                secs: 50,
            },
        })
        .expect("fits");
    let small = engine
        .submit(JobRequest {
            name: "small".into(),
            user: "dev".into(),
            nodes: 2,
            workload: ClusterWorkload::Synthetic {
                workload: Workload::QeLax,
                secs: 30,
            },
        })
        .expect("fits");

    assert!(engine.run_until_idle(SimDuration::from_secs(2000)));
    let job = |id| engine.scheduler().job(id).expect("known");
    // The small job backfilled: it started before the wide-long job ended.
    assert!(job(small).started_at().unwrap() < job(wide_long).ended_at().unwrap());
    // And the head job was not delayed past the wide job's completion.
    assert!(job(full_next).started_at().unwrap() >= job(wide_long).ended_at().unwrap());
}
