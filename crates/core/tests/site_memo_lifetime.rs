//! Every live scenario shares one site memo, and the memo lives only as
//! long as some scenario (or a clone a unit holds) keeps it. This file
//! holds a single test, so no other scenario is alive in its process to
//! keep the memo up.

use std::sync::Arc;

use ptperf::measure;
use ptperf::obs::perf;
use ptperf::scenario::Scenario;
use ptperf::web::SiteList;

#[test]
fn site_lists_are_freed_with_their_last_holder_and_rebuilt_afresh() {
    let a = Scenario::baseline(71);
    let b = Scenario::baseline(72);
    let unit_clone = b.clone();
    let mixed = a.target_sites(13);
    let top = b.top_sites(SiteList::Tranco, 13);
    let kept = [Arc::downgrade(&mixed), Arc::downgrade(&top)];
    drop((a, b, mixed, top));
    assert!(
        kept.iter().all(|list| list.upgrade().is_some()),
        "a clone still holds the memo"
    );
    drop(unit_clone);
    assert!(
        kept.iter().all(|list| list.upgrade().is_none()),
        "a list outlived every scenario"
    );

    // The next scenario starts an empty memo: its first request builds
    // the list, and only the repeat is served from the memo.
    let next = Scenario::baseline(73);
    let before = perf::snapshot();
    let rebuilt = next.target_sites(13);
    assert_eq!(perf::snapshot().delta_since(&before).site_rebuilds_saved, 0);
    assert_eq!(&rebuilt[..], &measure::target_sites(13)[..]);
    assert!(Arc::ptr_eq(&rebuilt, &next.target_sites(13)));
    assert_eq!(perf::snapshot().delta_since(&before).site_rebuilds_saved, 1);
}
