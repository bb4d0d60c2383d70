/**
 * @file
 * The approxsvc spec grammar: defaults, every clause, and the
 * loud-failure contract (unknown keys, duplicates, malformed numbers,
 * mismatched per-tenant lists all throw with the offending clause in
 * the message).
 */
#include "service/service_spec.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace approxhadoop::service {
namespace {

TEST(ServiceSpecTest, EmptySpecYieldsDefaults)
{
    ServiceSpec spec = parseServiceSpec("");
    ASSERT_EQ(spec.tenants.size(), 2u);
    EXPECT_EQ(spec.tenants[0].name, "t0");
    EXPECT_EQ(spec.tenants[0].priority, 0u);
    EXPECT_EQ(spec.tenants[1].priority, 1u);
    // Weights halve per class: t0 twice the share of t1.
    EXPECT_DOUBLE_EQ(spec.tenants[0].weight,
                     2.0 * spec.tenants[1].weight);
    EXPECT_DOUBLE_EQ(spec.arrival_rate, 0.02);
    EXPECT_DOUBLE_EQ(spec.duration, 600.0);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_TRUE(spec.workloads.empty());
    EXPECT_FALSE(spec.fault_plan.enabled());
}

TEST(ServiceSpecTest, EveryClauseParses)
{
    ServiceSpec spec = parseServiceSpec(
        "tenants=3,arrival=0.1,duration=900,seed=7,blocks=40,items=12,"
        "reducers=2,target=0.03,pressure=5,degrade=1.5,maxscale=6,"
        "endgame=30,preempt=1,defer=1,slo=120+300+0,"
        "workloads=wikilength+projectpop,"
        "cluster=atom60,straggler=0.2:6,crash=0.1");
    ASSERT_EQ(spec.tenants.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.arrival_rate, 0.1);
    EXPECT_DOUBLE_EQ(spec.duration, 900.0);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.blocks, 40u);
    EXPECT_EQ(spec.items, 12u);
    EXPECT_EQ(spec.reducers, 2u);
    EXPECT_DOUBLE_EQ(spec.target_rel_error, 0.03);
    EXPECT_EQ(spec.pressure_threshold, 5u);
    EXPECT_DOUBLE_EQ(spec.degrade_factor, 1.5);
    EXPECT_DOUBLE_EQ(spec.max_target_scale, 6.0);
    EXPECT_DOUBLE_EQ(spec.endgame_left_percent, 30.0);
    EXPECT_TRUE(spec.preempt);
    EXPECT_TRUE(spec.defer);
    EXPECT_DOUBLE_EQ(spec.tenants[0].slo_seconds, 120.0);
    EXPECT_DOUBLE_EQ(spec.tenants[1].slo_seconds, 300.0);
    EXPECT_DOUBLE_EQ(spec.tenants[2].slo_seconds, 0.0);
    ASSERT_EQ(spec.workloads.size(), 2u);
    EXPECT_EQ(spec.workloads[0], "wikilength");
    EXPECT_EQ(spec.workloads[1], "projectpop");
    EXPECT_EQ(spec.cluster, "atom60");
    EXPECT_DOUBLE_EQ(spec.fault_plan.straggler_prob, 0.2);
    EXPECT_DOUBLE_EQ(spec.fault_plan.straggler_factor, 6.0);
    EXPECT_DOUBLE_EQ(spec.fault_plan.task_crash_prob, 0.1);
}

TEST(ServiceSpecTest, MalformedSpecsThrowLoudly)
{
    struct BadCase
    {
        const char* spec;
        const char* why;
    };
    const BadCase cases[] = {
        {"frobnicate=1", "unknown key"},
        {"seed=1,seed=2", "duplicate key"},
        {"tenants=0", "zero tenants"},
        {"tenants=abc", "non-numeric count"},
        {"arrival=-0.1", "negative rate"},
        {"arrival=0", "zero rate"},
        {"duration=0", "zero duration"},
        {"target=0", "zero target"},
        {"target=1..5", "double typo"},
        {"degrade=0.5", "shrinking degrade factor"},
        {"maxscale=0.5", "scale below one"},
        {"tenants=2,slo=100", "slo count != tenant count"},
        {"slo=100+200+300", "slo count != default tenant count"},
        {"cluster=foo", "unknown cluster"},
        {"blocks=", "empty value"},
        {"crash=1.5", "out-of-range fault probability"},
        {"preempt=2", "preempt is a boolean flag"},
        {"defer=yes", "non-numeric defer"},
        {"seed", "clause without '='"},
        {"arrival=+0.5", "leading plus on rate"},
        {"duration= 600", "leading space before duration"},
        {"degrade=0x2", "hex degrade factor"},
        {"endgame=1e-400", "percent underflowing to zero"},
    };
    for (const BadCase& c : cases) {
        EXPECT_THROW(parseServiceSpec(c.spec), std::invalid_argument)
            << c.why << " — spec: " << c.spec;
    }
}

TEST(ServiceSpecTest, SummaryIsDeterministicAndEchoesKnobs)
{
    const char* text =
        "tenants=2,arrival=0.05,duration=600,seed=9,blocks=80,"
        "straggler=0.25:8";
    ServiceSpec spec = parseServiceSpec(text);
    std::string a = specSummary(spec);
    std::string b = specSummary(parseServiceSpec(text));
    EXPECT_EQ(a, b);
    for (const char* needle : {"tenants=2", "seed=9", "blocks=80",
                               "straggler"}) {
        EXPECT_NE(a.find(needle), std::string::npos)
            << "summary omits '" << needle << "': " << a;
    }
}

TEST(ServiceSpecTest, SummaryAppendsPreemptAndDeferOnlyWhenSet)
{
    // Off by default: the summary must stay byte-identical to what
    // pre-preemption builds emitted (reports pin on these bytes).
    std::string off = specSummary(parseServiceSpec("seed=3"));
    EXPECT_EQ(off.find("preempt"), std::string::npos) << off;
    EXPECT_EQ(off.find("defer"), std::string::npos) << off;

    std::string on =
        specSummary(parseServiceSpec("seed=3,preempt=1,defer=1"));
    EXPECT_NE(on.find(",preempt=1"), std::string::npos) << on;
    EXPECT_NE(on.find(",defer=1"), std::string::npos) << on;

    // preempt=0 is valid input but still omitted from the summary.
    std::string zero = specSummary(parseServiceSpec("preempt=0,defer=0"));
    EXPECT_EQ(zero.find("preempt"), std::string::npos) << zero;
    EXPECT_EQ(zero.find("defer"), std::string::npos) << zero;
}

TEST(ServiceSpecTest, HelpMentionsEveryClause)
{
    std::string help = serviceSpecHelp();
    for (const char* key :
         {"tenants", "arrival", "duration", "seed", "blocks", "items",
          "reducers", "target", "pressure", "degrade", "maxscale",
          "endgame", "preempt", "defer", "slo", "workloads", "cluster",
          "straggler", "crash"}) {
        EXPECT_NE(help.find(key), std::string::npos)
            << "spec help omits clause '" << key << "'";
    }
}

}  // namespace
}  // namespace approxhadoop::service
