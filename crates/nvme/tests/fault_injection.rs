//! Controller-level fault injection: command timeouts with bounded
//! retry-with-backoff on the batched queue path, injected aborts with
//! per-queue telemetry, and per-command error status in completions.

use ssdhammer_nvme::{Command, ControllerConfig, NvmeError, RetryPolicy, Ssd, SsdConfig};
use ssdhammer_simkit::faultplane::{FaultPlaneConfig, FaultSpec};
use ssdhammer_simkit::{Lba, SimDuration, BLOCK_SIZE};

fn write_cmd(ns: ssdhammer_nvme::NsId, lba: u64, fill: u8) -> Command {
    Command::Write {
        ns,
        lba: Lba(lba),
        data: vec![fill; BLOCK_SIZE].into_boxed_slice(),
    }
}

fn faulty_ssd(seed: u64, faults: FaultPlaneConfig, retry: RetryPolicy) -> Ssd {
    Ssd::build(SsdConfig {
        fault_plane: faults,
        controller: ControllerConfig {
            retry,
            ..ControllerConfig::default()
        },
        ..SsdConfig::test_small(seed)
    })
}

#[test]
fn persistent_timeouts_surface_as_per_command_errors() {
    let faults = FaultPlaneConfig::new().with_site("nvme.timeout", FaultSpec::always());
    let retry = RetryPolicy { max_retries: 2 };
    let mut ssd = faulty_ssd(1, faults, retry);
    let ns = ssd.create_namespace(256).unwrap();
    let qp = ssd.create_queue_pair(8);
    let cmds: Vec<Command> = (0..4).map(|i| write_cmd(ns, i, 0xAB)).collect();
    let cids = ssd.submit_batch(qp, &cmds).unwrap();
    ssd.process_all();
    let completions = ssd.drain_completions(qp).unwrap();
    assert_eq!(completions.len(), 4);
    for (c, cid) in completions.iter().zip(cids) {
        assert_eq!(c.cid, cid);
        assert!(!c.is_ok());
        // The per-command error status is inspectable without matching on
        // the result payload.
        assert_eq!(c.error(), Some(&NvmeError::Timeout { retries: 2 }));
    }
    // No write reached the FTL: every attempt timed out pre-execution.
    let snap = ssd.snapshot_telemetry();
    assert_eq!(snap.counter("ftl.host_writes"), Some(0));
    assert_eq!(snap.counter("nvme.timeouts"), Some(12)); // 4 cmds x 3 attempts
    assert_eq!(snap.counter("nvme.retries"), Some(8)); // 4 cmds x 2 retries
}

#[test]
fn transient_timeouts_recover_within_the_retry_budget() {
    let faults =
        FaultPlaneConfig::new().with_site("nvme.timeout", FaultSpec::with_probability(0.4));
    let retry = RetryPolicy { max_retries: 6 };
    let mut ssd = faulty_ssd(3, faults, retry);
    let ns = ssd.create_namespace(256).unwrap();
    let qp = ssd.create_queue_pair(32);
    let cmds: Vec<Command> = (0..32).map(|i| write_cmd(ns, i, 0x5A)).collect();
    ssd.submit_batch(qp, &cmds).unwrap();
    ssd.process_all();
    let completions = ssd.drain_completions(qp).unwrap();
    assert!(
        completions.iter().all(|c| c.is_ok()),
        "budget absorbs p=0.4"
    );
    let snap = ssd.snapshot_telemetry();
    let timeouts = snap.counter("nvme.timeouts").unwrap_or(0);
    let retries = snap.counter("nvme.retries").unwrap_or(0);
    assert!(timeouts > 0, "some attempts must have timed out");
    assert_eq!(retries, timeouts, "every timeout was retried, none failed");
}

#[test]
fn retried_commands_pay_their_backoff_on_the_sim_clock() {
    let faults =
        FaultPlaneConfig::new().with_site("nvme.timeout", FaultSpec::always().with_max_fires(2));
    let retry = RetryPolicy { max_retries: 4 };
    let mut ssd = faulty_ssd(1, faults, retry);
    let ns = ssd.create_namespace(64).unwrap();
    let qp = ssd.create_queue_pair(4);
    ssd.submit(qp, write_cmd(ns, 0, 1)).unwrap();
    ssd.process_all();
    let c = ssd.drain_completions(qp).unwrap().pop().unwrap();
    assert!(c.is_ok(), "two timeouts, then success");
    // Two burned deadlines + backoffs (one, then two base backoffs) are all
    // simulated time, reflected in the command's completion latency.
    let floor = SimDuration::from_nanos(
        2 * RetryPolicy::TIMEOUT.as_nanos() + 3 * RetryPolicy::BACKOFF.as_nanos(),
    );
    assert!(
        c.latency() >= floor,
        "latency {:?} must cover deadlines and backoff {:?}",
        c.latency(),
        floor
    );
}

#[test]
fn aborts_are_counted_per_queue_pair() {
    // Fire on consults 2 and 3 of the abort site: with two queue pairs
    // serviced round-robin, one abort lands on each.
    let faults =
        FaultPlaneConfig::new().with_site("nvme.abort", FaultSpec::always().with_window(2, 4));
    let mut ssd = faulty_ssd(1, faults, RetryPolicy::default());
    let ns = ssd.create_namespace(256).unwrap();
    let qp1 = ssd.create_queue_pair(8);
    let qp2 = ssd.create_queue_pair(8);
    for i in 0..4 {
        ssd.submit(qp1, write_cmd(ns, i, 1)).unwrap();
        ssd.submit(qp2, write_cmd(ns, 16 + i, 2)).unwrap();
    }
    ssd.process_all();
    let failed1 = ssd
        .drain_completions(qp1)
        .unwrap()
        .iter()
        .filter(|c| c.error() == Some(&NvmeError::Aborted))
        .count();
    let failed2 = ssd
        .drain_completions(qp2)
        .unwrap()
        .iter()
        .filter(|c| c.error() == Some(&NvmeError::Aborted))
        .count();
    assert_eq!(failed1 + failed2, 2);
    let snap = ssd.snapshot_telemetry();
    assert_eq!(snap.counter("nvme.aborts"), Some(2));
    assert_eq!(
        snap.counter("nvme.qp1.aborts").unwrap_or(0) + snap.counter("nvme.qp2.aborts").unwrap_or(0),
        2
    );
    assert_eq!(snap.counter("nvme.qp1.aborts"), Some(failed1 as u64));
    assert_eq!(snap.counter("nvme.qp2.aborts"), Some(failed2 as u64));
}

#[test]
fn fault_telemetry_reports_consults_and_fires() {
    let faults =
        FaultPlaneConfig::new().with_site("nvme.timeout", FaultSpec::with_probability(0.5));
    let mut ssd = faulty_ssd(5, faults, RetryPolicy { max_retries: 10 });
    let ns = ssd.create_namespace(64).unwrap();
    let qp = ssd.create_queue_pair(16);
    let cmds: Vec<Command> = (0..16).map(|i| write_cmd(ns, i, 7)).collect();
    ssd.submit_batch(qp, &cmds).unwrap();
    ssd.process_all();
    let snap = ssd.snapshot_telemetry();
    let consults = snap.counter("fault.consults").unwrap_or(0);
    let injected = snap.counter("fault.injected").unwrap_or(0);
    assert!(consults > 0 && injected > 0 && injected < consults);
    assert_eq!(snap.counter("fault.nvme.timeout.fired"), Some(injected));
}

#[test]
fn identical_seeds_produce_identical_faulted_telemetry() {
    let run = |seed: u64| {
        let faults = FaultPlaneConfig::new()
            .with_site("nvme.timeout", FaultSpec::with_probability(0.3))
            .with_site("nvme.abort", FaultSpec::with_probability(0.05));
        let mut ssd = faulty_ssd(seed, faults, RetryPolicy::default());
        let ns = ssd.create_namespace(256).unwrap();
        let qp = ssd.create_queue_pair(16);
        for round in 0..4u64 {
            let cmds: Vec<Command> = (0..16).map(|i| write_cmd(ns, i, round as u8)).collect();
            ssd.submit_batch(qp, &cmds).unwrap();
            ssd.process_all();
            ssd.drain_completions(qp).unwrap();
        }
        ssd.snapshot_telemetry().to_json().to_string()
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}
