#pragma once

// glint::obs — process-wide telemetry: named Counter / Gauge / Histogram
// instruments in a Registry (sharded atomic storage, wait-free hot path),
// the RAII ScopedTimer wall-time recorder, request-scoped fleet tracing
// (TraceContext / TraceRecorder / SlowTraceRing, DESIGN.md §14 — the one
// trace mechanism), bounded TimeSeries rings for periodic snapshots, and
// text / single-line JSON exporters (STATS_JSON).
//
// Instrument names follow `glint.<subsystem>.<name>`; histograms end in a
// unit suffix (`_ms`). See DESIGN.md §9 for the taxonomy and schema.
//
// Call sites use the macros below: the instrument is resolved once per site
// (function-local static), so the steady-state cost is the Enabled() branch
// inside the instrument. GLINT_OBS=off (or SetEnabled(false)) is the one
// off-switch.

#include "obs/registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

/// Adds `n` to the counter `name`.
#define GLINT_OBS_COUNT(name, n)                           \
  do {                                                     \
    static ::glint::obs::Counter* _glint_obs_counter =     \
        ::glint::obs::Registry::Global().GetCounter(name); \
    _glint_obs_counter->Add(n);                            \
  } while (0)

/// Applies a delta to the gauge `name` (tracks the peak automatically).
#define GLINT_OBS_GAUGE_ADD(name, d)                     \
  do {                                                   \
    static ::glint::obs::Gauge* _glint_obs_gauge =       \
        ::glint::obs::Registry::Global().GetGauge(name); \
    _glint_obs_gauge->Add(d);                            \
  } while (0)

/// Sets the gauge `name` to an absolute value.
#define GLINT_OBS_GAUGE_SET(name, v)                     \
  do {                                                   \
    static ::glint::obs::Gauge* _glint_obs_gauge =       \
        ::glint::obs::Registry::Global().GetGauge(name); \
    _glint_obs_gauge->Set(v);                            \
  } while (0)

/// Records one sample into the histogram `name` (default latency buckets).
#define GLINT_OBS_OBSERVE(name, x)                           \
  do {                                                       \
    static ::glint::obs::Histogram* _glint_obs_hist =        \
        ::glint::obs::Registry::Global().GetHistogram(name); \
    _glint_obs_hist->Observe(x);                             \
  } while (0)

/// Declares a scope-timing RAII object `var` feeding histogram `name`.
#define GLINT_OBS_TIMER(var, name)                          \
  static ::glint::obs::Histogram* var##_obs_hist =          \
      ::glint::obs::Registry::Global().GetHistogram(name);  \
  ::glint::obs::ScopedTimer var(var##_obs_hist)
