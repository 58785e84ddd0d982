//! A multi-event campaign: run the whole built-in CMT catalogue against
//! one shared Earth mesh on a bounded worker pool, with priorities,
//! automatic retry, and a campaign report.
//!
//! ```sh
//! cargo run --release --example event_campaign
//! ```

use specfem_campaign::{Campaign, CampaignConfig, Job};
use specfem_core::model::builtin_events;
use specfem_core::{Simulation, SourceSpec, SourceTimeFunction, StfKind};

fn main() {
    let events = builtin_events();
    println!(
        "campaign over {} catalogue events (shared NEX-8 PREM mesh)",
        events.len()
    );

    let mut campaign = Campaign::new(CampaignConfig {
        workers: 0, // auto-size to the machine
        mesh_cache_bytes: 256 << 20,
        ..CampaignConfig::default()
    });
    for (i, event) in events.into_iter().enumerate() {
        let name = event.name.clone();
        let sim = Simulation::builder()
            .resolution(8)
            .steps(40)
            .stations(6)
            .source(SourceSpec::Cmt {
                event,
                stf: SourceTimeFunction::new(StfKind::Ricker, 200.0),
            })
            .build()
            .expect("catalogue event simulation");
        // Deep events first, as a priority demo.
        campaign.submit(Job::new(name, sim).priority(-(i as i32)));
    }

    let result = campaign.finish();
    print!("{}", result.report.render_text());
    assert!(result.all_ok(), "campaign had failed jobs");

    let out = std::path::Path::new("OUTPUT_FILES");
    std::fs::create_dir_all(out).expect("create OUTPUT_FILES");
    std::fs::write(out.join("campaign_report.json"), result.report.to_json())
        .expect("write campaign report");
    std::fs::write(
        out.join("campaign_timeline.perfetto.json"),
        result.perfetto_json(),
    )
    .expect("write campaign timeline");
    println!(
        "wrote OUTPUT_FILES/campaign_report.json and campaign_timeline.perfetto.json \
         (load the timeline at ui.perfetto.dev)"
    );
}
