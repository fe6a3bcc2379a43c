/**
 * @file
 * `perfbench --self-test`: proves the benchmark's own checks reject
 * what they must — impossible rates and efficiencies, perturbed or
 * mis-summed campaign rows — and that span self time subtracts nested
 * children.
 */

#include <cmath>
#include <cstdio>

#include "bench.hh"

namespace perfbench {

namespace {

unsigned failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

} // namespace

int
selfTest()
{
    MetricSet good;
    good.add("parallel.efficiency", 0.93, "ratio");
    good.add("run.fresh_minsts_per_s", 180, "Minst/s");
    expect(sanityErrors(good).empty(), "plausible metrics pass");

    MetricSet over;
    over.add("parallel.efficiency", 1.6, "ratio");
    expect(sanityErrors(over).size() == 1,
           "parallel.efficiency above 1.0 is rejected");

    // The broken suite_risc1/jobs:2 series: a rate divided by the main
    // thread's CPU time instead of wall time reads ~32 G insts/s.
    MetricSet fast;
    fast.add("run.warm_minsts_per_s", 32000, "Minst/s");
    expect(sanityErrors(fast).size() == 1,
           "a rate above the physical bound is rejected");

    MetricSet zero;
    zero.add("vax.minsts_per_s", 0, "Minst/s");
    expect(sanityErrors(zero).size() == 1, "a zero rate is rejected");

    MetricSet nan;
    nan.add("parallel.efficiency", std::nan(""), "ratio");
    expect(!sanityErrors(nan).empty(), "a NaN metric is rejected");

    std::vector<risc1::core::FaultCampaignRow> rows =
        risc1::core::faultCampaign(2, 7, 1, true);
    expect(tallyErrors(rows).empty(), "library tallies sum to injections");
    std::vector<risc1::core::FaultCampaignRow> moved = rows;
    perturbRows(moved);
    expect(!rowsDiff(moved, rows).empty(), "a perturbed row is caught");
    expect(tallyErrors(moved).empty(),
           "a perturbation keeps the tally sum (only the diff sees it)");
    std::vector<risc1::core::FaultCampaignRow> extra = rows;
    ++extra.back().byOutcome[0];
    expect(!tallyErrors(extra).empty(), "a mis-summed row is caught");

    std::vector<SpanRecord> spans(3);
    spans[0] = {1, 0, "outer", "a", 0, 10'000, 1};
    spans[1] = {2, 1, "inner", "b", 1'000, 5'000, 1};
    spans[2] = {3, 1, "inner", "c", 0, 9'000, 2}; // another thread
    const std::vector<LayerTime> lt = layerSelfTimes(spans);
    expect(lt.size() == 2 && lt[0].layer == "inner" &&
               std::abs(lt[0].selfSeconds - 13e-6) < 1e-12 &&
               std::abs(lt[1].selfSeconds - 6e-6) < 1e-12,
           "self time subtracts same-thread children only");

    std::printf("%s: %u failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}

} // namespace perfbench
