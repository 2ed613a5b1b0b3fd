/**
 * @file
 * Tests for MachineConfig: parsing, validation, and the DRA pipeline
 * transformation of §6.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/logging.hh"
#include "core/machine_config.hh"
#include "sim/config.hh"

using namespace loopsim;

TEST(MachineConfig, DefaultsAreThePaperBaseMachine)
{
    Config cfg;
    MachineConfig m = MachineConfig::fromConfig(cfg);
    EXPECT_EQ(m.width, 8u);
    EXPECT_EQ(m.iqEntries, 128u);
    EXPECT_EQ(m.robEntries, 256u);
    EXPECT_EQ(m.numClusters, 8u);
    EXPECT_EQ(m.decIqLatency, 5u);
    EXPECT_EQ(m.iqExLatency, 5u);
    EXPECT_EQ(m.regfileLatency, 3u);
    EXPECT_EQ(m.fwdBufferDepth, 9u);
    EXPECT_EQ(m.loadFeedback, 3u);
    EXPECT_FALSE(m.dra);
    EXPECT_EQ(m.loadRecovery, LoadRecovery::Reissue);
    EXPECT_EQ(m.pipeLabel(), "5_5");
}

TEST(MachineConfig, OverridesApply)
{
    Config cfg;
    cfg.setUint("core.width", 4);
    cfg.setUint("core.iq.entries", 64);
    cfg.setUint("core.clusters", 4);
    cfg.set("core.load_recovery", "stall");
    cfg.set("core.fetch_policy", "rr");
    cfg.setBool("core.kill_all_in_shadow", true);
    MachineConfig m = MachineConfig::fromConfig(cfg);
    EXPECT_EQ(m.width, 4u);
    EXPECT_EQ(m.iqEntries, 64u);
    EXPECT_EQ(m.loadRecovery, LoadRecovery::Stall);
    EXPECT_EQ(m.fetchPolicy, FetchPolicy::RoundRobin);
    EXPECT_TRUE(m.killAllInShadow);
}

TEST(MachineConfig, DraTransformationRf3)
{
    // §6: rf=3 -> base 5_5 becomes DRA 5_3.
    Config cfg;
    cfg.setBool("dra.enable", true);
    MachineConfig m = MachineConfig::fromConfig(cfg);
    EXPECT_TRUE(m.dra);
    EXPECT_EQ(m.decIqLatency, 5u);
    EXPECT_EQ(m.iqExLatency, 3u);
    EXPECT_EQ(m.pipeLabel(), "5_3");
}

TEST(MachineConfig, DraTransformationRf5AndRf7)
{
    // §6: rf=5 -> base 5_7 becomes DRA 7_3; rf=7 -> base 5_9 -> 9_3.
    Config cfg5;
    cfg5.setBool("dra.enable", true);
    cfg5.setUint("core.regfile_latency", 5);
    cfg5.setUint("core.iq_ex", 7);
    MachineConfig m5 = MachineConfig::fromConfig(cfg5);
    EXPECT_EQ(m5.pipeLabel(), "7_3");

    Config cfg7;
    cfg7.setBool("dra.enable", true);
    cfg7.setUint("core.regfile_latency", 7);
    cfg7.setUint("core.iq_ex", 9);
    MachineConfig m7 = MachineConfig::fromConfig(cfg7);
    EXPECT_EQ(m7.pipeLabel(), "9_3");
}

TEST(MachineConfig, ValidationRejectsNonsense)
{
    auto with = [](auto setup) {
        Config cfg;
        setup(cfg);
        return MachineConfig::fromConfig(cfg);
    };
    EXPECT_THROW(with([](Config &c) { c.setUint("core.width", 0); }),
                 FatalError);
    EXPECT_THROW(with([](Config &c) { c.setUint("core.iq.entries", 4); }),
                 FatalError);
    EXPECT_THROW(
        with([](Config &c) { c.setUint("core.rob.entries", 64); }),
        FatalError);
    // 2 * 64 architectural + 400 in flight > 512 physical registers.
    EXPECT_THROW(
        with([](Config &c) { c.setUint("core.rob.entries", 400); }),
        FatalError);
    // Base IQ-EX must cover the RF access.
    EXPECT_THROW(
        with([](Config &c) { c.setUint("core.regfile_latency", 4); }),
        FatalError);
    EXPECT_THROW(with([](Config &c) { c.set("core.load_recovery", "x"); }),
                 FatalError);
    EXPECT_THROW(
        with([](Config &c) {
            c.setBool("dra.enable", true);
            c.setUint("dra.insertion_bits", 0);
        }),
        FatalError);
}

TEST(MachineConfig, PrintListsKeyParameters)
{
    Config cfg;
    cfg.setBool("dra.enable", true);
    MachineConfig m = MachineConfig::fromConfig(cfg);
    std::ostringstream os;
    m.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("iq entries"), std::string::npos);
    EXPECT_NE(text.find("dec-iq latency"), std::string::npos);
    EXPECT_NE(text.find("dra                   yes"), std::string::npos);
    EXPECT_NE(text.find("crc entries/cluster"), std::string::npos);
}
