//! Per-layer figures read from a `qfc::obs` trace of one pass.

use qfc::obs::{SpanData, TraceSnapshot};

use crate::metrics::Samples;

/// Driver stage spans recorded by the core drivers, with the metric
/// each one feeds.
const STAGE_SPANS: &[(&str, &str)] = &[
    ("driver.heralded.timetag", "core.heralded.timetag_ms"),
    ("driver.heralded.analysis", "core.heralded.analysis_ms"),
    ("driver.crosspol.timetag", "core.crosspol.timetag_ms"),
    ("driver.crosspol.analysis", "core.crosspol.analysis_ms"),
    ("driver.timebin.timetag", "core.timebin.timetag_ms"),
    ("driver.timebin.analysis", "core.timebin.analysis_ms"),
    ("driver.multiphoton.timetag", "core.multiphoton.timetag_ms"),
    (
        "driver.multiphoton.analysis",
        "core.multiphoton.analysis_ms",
    ),
    // The §III coincidence-to-accidental analysis is the crosspol
    // driver's analysis stage.
    ("driver.crosspol.analysis", "timetag.car_ms"),
];

/// Calls and total nanoseconds of every span named `name`, wherever it
/// sits in the tree.
fn span_totals(span: &SpanData, name: &str) -> (u64, u128) {
    let own = if span.name == name {
        (span.calls, span.total_ns)
    } else {
        (0, 0)
    };
    span.children.iter().fold(own, |(calls, ns), child| {
        let (c, n) = span_totals(child, name);
        (calls + c, ns + n)
    })
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

/// The span- and counter-derived layer figures of one traced pass.
pub fn layer_metrics(snapshot: &TraceSnapshot) -> Samples {
    let mut out: Samples = STAGE_SPANS
        .iter()
        .map(|&(span, metric)| (metric, ms(span_totals(&snapshot.spans, span).1)))
        .collect();
    let (dispatches, dispatch_ns) = span_totals(&snapshot.spans, "runtime.execute");
    out.push(("runtime.dispatches", dispatches as f64));
    out.push(("runtime.dispatch_ms", ms(dispatch_ns)));
    let counter = |name| snapshot.counter(name).unwrap_or(0) as f64;
    out.push(("timetag.shots", counter("shots_simulated")));
    out.push(("timetag.coincidences", counter("coincidences_counted")));
    out
}
