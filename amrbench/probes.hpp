/**
 * @file probes.hpp
 * Layer probes: each times one public entry point on a deck's settled
 * mesh (after its run) as the median of repeated calls, and reports
 * the exact work it covered next to the time, so every rate states
 * its base.
 */
#pragma once

#include "amrbench.hpp"

namespace amrbench {

/** Run every probe on `run`'s settled mesh; returns their metrics. */
Metrics runProbes(DeckRun& run);

} // namespace amrbench
