//! Proves `POST /sessions/{id}/lfs` is O(new LF): the journal for the
//! request contains the single-column `lf.matrix.add_column` span and no
//! full-matrix `lf.matrix.apply` span (and no per-LF `lf.apply` events).
//!
//! Lives alone in this binary: the obs journal is process-global, so any
//! concurrent test in the same process would contaminate the drain.

mod common;

use panda_serve::api::{CreateSessionRequest, SessionConfigDto};
use panda_serve::client::{request, Reply};
use panda_serve::{Server, ServerConfig};

#[test]
fn adding_an_lf_never_reapplies_the_matrix() {
    panda_obs::reset();
    panda_obs::set_enabled(true);
    panda_obs::set_journal_enabled(true);

    let handle = Server::start(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let (left_csv, right_csv, gold) = common::demo_csvs();
    let create = CreateSessionRequest {
        left_csv,
        right_csv,
        gold: Some(gold),
        config: Some(SessionConfigDto {
            auto_lfs: Some(false),
            ..Default::default()
        }),
    };
    let create = serde_json::to_string(&create).unwrap();
    let Reply { status, body, .. } = request(addr, "POST", "/sessions", &create, None).unwrap();
    assert_eq!(status, 200, "{body}");

    // Load legitimately runs a full apply; flush its telemetry so the
    // journal covers *only* the LF-add request.
    panda_obs::journal_drain();

    let lf = r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.5,"lower":0.1}"#;
    let Reply { status, body, .. } = request(addr, "POST", "/sessions/1/lfs", lf, None).unwrap();
    assert_eq!(status, 200, "{body}");

    let journal = panda_obs::journal_drain().to_jsonl();
    assert!(
        journal.contains("serve.request"),
        "request span/event missing from journal:\n{journal}"
    );
    assert!(
        journal.contains("lf.matrix.add_column"),
        "incremental column add missing from journal:\n{journal}"
    );
    assert!(
        journal.contains("\"lf.column\""),
        "per-column event missing from journal:\n{journal}"
    );
    assert!(
        !journal.contains("lf.matrix.apply"),
        "full-matrix apply span fired on an incremental add:\n{journal}"
    );
    assert!(
        !journal.contains("\"lf.apply\""),
        "full-apply per-LF events fired on an incremental add:\n{journal}"
    );

    handle.shutdown();
    handle.join();
    panda_obs::set_journal_enabled(false);
    panda_obs::set_enabled(false);
}
