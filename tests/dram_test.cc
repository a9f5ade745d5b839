/** @file Unit and property tests for the DDR3 device model. */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/dram/address.h"
#include "src/dram/device.h"

namespace camo::dram {
namespace {

DramOrganization
tableIiOrg()
{
    DramOrganization org;
    org.channels = 1;
    org.ranksPerChannel = 1;
    org.banksPerRank = 8;
    org.rowBufferBytes = 8192;
    org.lineBytes = 64;
    return org;
}

// ------------------------------------------------------ AddressMapper

TEST(AddressMapper, DecodeFieldsInRange)
{
    const auto org = tableIiOrg();
    for (const auto scheme : {MappingScheme::RowRankBankCol,
                              MappingScheme::RowColRankBank}) {
        AddressMapper mapper(org, scheme);
        Rng rng(3);
        for (int i = 0; i < 2000; ++i) {
            const Addr a = rng.next() & ((1ULL << 46) - 1);
            const DramAddress da = mapper.decode(a);
            ASSERT_LT(da.bank, org.banksPerRank);
            ASSERT_LT(da.rank, org.ranksPerChannel);
            ASSERT_LT(da.row, org.rowsPerBank);
            ASSERT_LT(da.column, org.columnsPerRow());
        }
    }
}

TEST(AddressMapper, EncodeDecodeRoundTrip)
{
    const auto org = tableIiOrg();
    for (const auto scheme : {MappingScheme::RowRankBankCol,
                              MappingScheme::RowColRankBank}) {
        AddressMapper mapper(org, scheme);
        Rng rng(5);
        for (int i = 0; i < 2000; ++i) {
            DramAddress da;
            da.bank = static_cast<std::uint32_t>(
                rng.below(org.banksPerRank));
            da.row = static_cast<std::uint32_t>(
                rng.below(org.rowsPerBank));
            da.column = static_cast<std::uint32_t>(
                rng.below(org.columnsPerRow()));
            const Addr a = mapper.encode(da);
            const DramAddress back = mapper.decode(a);
            ASSERT_EQ(back, da) << "addr=" << a;
        }
    }
}

TEST(AddressMapper, SequentialLinesStayInRowForRowRankBankCol)
{
    AddressMapper mapper(tableIiOrg(), MappingScheme::RowRankBankCol);
    const DramAddress first = mapper.decode(0);
    for (Addr a = 64; a < 8192; a += 64) {
        const DramAddress da = mapper.decode(a);
        EXPECT_EQ(da.row, first.row);
        EXPECT_EQ(da.bank, first.bank);
    }
}

TEST(AddressMapper, SequentialLinesInterleaveBanksForRowColRankBank)
{
    AddressMapper mapper(tableIiOrg(), MappingScheme::RowColRankBank);
    std::vector<std::uint32_t> banks;
    for (Addr a = 0; a < 8 * 64; a += 64)
        banks.push_back(mapper.decode(a).bank);
    for (std::uint32_t b = 0; b < 8; ++b)
        EXPECT_EQ(banks[b], b);
}

TEST(AddressMapper, ChannelRotatesAtLineBoundaries)
{
    auto org = tableIiOrg();
    org.channels = 4;
    AddressMapper mapper(org, MappingScheme::RowColRankBank);
    for (Addr line = 0; line < 64; ++line) {
        const Addr base = line * org.lineBytes;
        const auto expect = static_cast<std::uint32_t>(line % 4);
        // Every byte of a line shares its channel...
        EXPECT_EQ(mapper.channelOf(base), expect);
        EXPECT_EQ(mapper.channelOf(base + 1), expect);
        EXPECT_EQ(mapper.channelOf(base + org.lineBytes - 1), expect);
        // ...and the very next byte starts the next channel.
        EXPECT_EQ(mapper.channelOf(base + org.lineBytes),
                  static_cast<std::uint32_t>((line + 1) % 4));
    }
}

TEST(AddressMapper, NonPowerOfTwoChannelCountDecodes)
{
    auto org = tableIiOrg();
    org.channels = 3;
    for (const auto scheme : {MappingScheme::RowRankBankCol,
                              MappingScheme::RowColRankBank}) {
        AddressMapper mapper(org, scheme);
        Rng rng(11);
        for (int i = 0; i < 2000; ++i) {
            const Addr a = rng.next() & ((1ULL << 46) - 1);
            const std::uint32_t ch = mapper.channelOf(a);
            ASSERT_LT(ch, 3u);
            ASSERT_EQ(ch, (a / org.lineBytes) % 3);
            ASSERT_EQ(mapper.decode(a).channel, ch);
            // stripChannel keeps the within-line offset intact.
            ASSERT_EQ(mapper.stripChannel(a) % org.lineBytes,
                      a % org.lineBytes);
        }
    }
}

TEST(AddressMapper, StripChannelMatchesPerChannelDecodeNonPow2)
{
    // A 3-channel memory system hands each controller a channels==1
    // organization and channel-local addresses: the local decode must
    // agree with the full decode on every other coordinate.
    auto org = tableIiOrg();
    org.channels = 3;
    auto local_org = org;
    local_org.channels = 1;
    AddressMapper full(org, MappingScheme::RowColRankBank);
    AddressMapper local(local_org, MappingScheme::RowColRankBank);
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.next() & ((1ULL << 46) - 1);
        const DramAddress da = full.decode(a);
        const DramAddress lda = local.decode(full.stripChannel(a));
        ASSERT_EQ(lda.rank, da.rank);
        ASSERT_EQ(lda.bank, da.bank);
        ASSERT_EQ(lda.row, da.row);
        ASSERT_EQ(lda.column, da.column);
        ASSERT_EQ(lda.channel, 0u);
    }
}

TEST(AddressMapper, EncodeDecodeRoundTripWithNonPow2Channels)
{
    auto org = tableIiOrg();
    org.channels = 3;
    for (const auto scheme : {MappingScheme::RowRankBankCol,
                              MappingScheme::RowColRankBank}) {
        AddressMapper mapper(org, scheme);
        Rng rng(17);
        for (int i = 0; i < 2000; ++i) {
            DramAddress da;
            da.channel = static_cast<std::uint32_t>(rng.below(3));
            da.bank = static_cast<std::uint32_t>(
                rng.below(org.banksPerRank));
            da.row = static_cast<std::uint32_t>(
                rng.below(org.rowsPerBank));
            da.column = static_cast<std::uint32_t>(
                rng.below(org.columnsPerRow()));
            const Addr a = mapper.encode(da);
            ASSERT_EQ(mapper.decode(a), da) << "addr=" << a;
        }
    }
}

// --------------------------------------------------------- DramDevice

struct DeviceFixture : ::testing::Test
{
    DeviceFixture() : dev(tableIiOrg(), DramTiming{}) {}

    /** Advance to the first cycle >= from where cmd can issue. */
    std::uint64_t
    issueWhenReady(Cmd cmd, const DramAddress &da, std::uint64_t from,
                   IssueResult *out = nullptr)
    {
        std::uint64_t t = from;
        while (!dev.canIssue(cmd, da, t)) {
            ++t;
            EXPECT_LT(t, from + 100000) << "command never became legal";
        }
        const auto result = dev.issue(cmd, da, t);
        if (out)
            *out = result;
        return t;
    }

    DramTiming timing;
    DramDevice dev;
};

TEST_F(DeviceFixture, ReadNeedsActivatedRow)
{
    const DramAddress da{0, 0, 2, 77, 3};
    EXPECT_FALSE(dev.canIssue(Cmd::RD, da, 10));
    issueWhenReady(Cmd::ACT, da, 10);
    EXPECT_TRUE(dev.isRowOpen(da));
    EXPECT_TRUE(dev.isRowHit(da));
}

TEST_F(DeviceFixture, TRcdEnforced)
{
    const DramAddress da{0, 0, 0, 5, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    EXPECT_FALSE(dev.canIssue(Cmd::RD, da, act_at + timing.tRCD - 1));
    EXPECT_TRUE(dev.canIssue(Cmd::RD, da, act_at + timing.tRCD));
    EXPECT_FALSE(dev.canIssue(Cmd::WR, da, act_at + timing.tRCD - 1));
}

TEST_F(DeviceFixture, TRasEnforcedBeforePrecharge)
{
    const DramAddress da{0, 0, 1, 9, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    EXPECT_FALSE(dev.canIssue(Cmd::PRE, da, act_at + timing.tRAS - 1));
    EXPECT_TRUE(dev.canIssue(Cmd::PRE, da, act_at + timing.tRAS));
}

TEST_F(DeviceFixture, TRpEnforcedAfterPrecharge)
{
    const DramAddress da{0, 0, 1, 9, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    const auto pre_at = issueWhenReady(Cmd::PRE, da, act_at + 1);
    EXPECT_FALSE(dev.canIssue(Cmd::ACT, da, pre_at + timing.tRP - 1));
    EXPECT_TRUE(dev.canIssue(Cmd::ACT, da, pre_at + timing.tRP));
}

TEST_F(DeviceFixture, TRcEnforcedActToAct)
{
    DramAddress da{0, 0, 3, 1, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    issueWhenReady(Cmd::PRE, da, act_at + timing.tRAS);
    // Same bank, other row: the second ACT waits for tRC from the
    // first ACT even if tRP has elapsed.
    DramAddress other = da;
    other.row = 2;
    std::uint64_t t = act_at;
    while (!dev.canIssue(Cmd::ACT, other, t))
        ++t;
    EXPECT_GE(t, act_at + timing.tRC);
}

TEST_F(DeviceFixture, TRrdBetweenBanks)
{
    const DramAddress a{0, 0, 0, 1, 0}, b{0, 0, 1, 1, 0};
    const auto t0 = issueWhenReady(Cmd::ACT, a, 0);
    EXPECT_FALSE(dev.canIssue(Cmd::ACT, b, t0 + timing.tRRD - 1));
    EXPECT_TRUE(dev.canIssue(Cmd::ACT, b, t0 + timing.tRRD));
}

TEST_F(DeviceFixture, TFawLimitsFourActivates)
{
    std::uint64_t last = 0;
    std::uint64_t first = 0;
    for (std::uint32_t b = 0; b < 4; ++b) {
        const DramAddress da{0, 0, b, 1, 0};
        last = issueWhenReady(Cmd::ACT, da, last + (b ? 1 : 0));
        if (b == 0)
            first = last;
    }
    // The fifth ACT must wait for the tFAW window to pass.
    const DramAddress fifth{0, 0, 4, 1, 0};
    std::uint64_t t = last + timing.tRRD;
    while (!dev.canIssue(Cmd::ACT, fifth, t))
        ++t;
    EXPECT_GE(t, first + timing.tFAW);
}

TEST_F(DeviceFixture, ReadDataTiming)
{
    const DramAddress da{0, 0, 0, 3, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    IssueResult r;
    const auto rd_at =
        issueWhenReady(Cmd::RD, da, act_at + timing.tRCD, &r);
    EXPECT_EQ(r.dataDoneCycle,
              rd_at + timing.tCL + timing.dataCycles());
    EXPECT_TRUE(r.rowHit);
}

TEST_F(DeviceFixture, TCcdBetweenColumnCommands)
{
    const DramAddress da{0, 0, 0, 3, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    const auto rd1 = issueWhenReady(Cmd::RD, da, act_at + timing.tRCD);
    DramAddress next = da;
    next.column = 1;
    EXPECT_FALSE(dev.canIssue(Cmd::RD, next, rd1 + timing.tCCD - 1));
    std::uint64_t t = rd1 + timing.tCCD;
    while (!dev.canIssue(Cmd::RD, next, t))
        ++t;
    // May be delayed further by data-bus occupancy, never earlier.
    EXPECT_GE(t, rd1 + timing.tCCD);
}

TEST_F(DeviceFixture, WriteToReadTurnaround)
{
    const DramAddress da{0, 0, 0, 3, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    IssueResult w;
    const auto wr_at =
        issueWhenReady(Cmd::WR, da, act_at + timing.tRCD, &w);
    // RD must wait tWTR after the write data completes.
    DramAddress next = da;
    next.column = 1;
    std::uint64_t t = wr_at + 1;
    while (!dev.canIssue(Cmd::RD, next, t))
        ++t;
    EXPECT_GE(t, w.dataDoneCycle + timing.tWTR);
}

TEST_F(DeviceFixture, WriteRecoveryBeforePrecharge)
{
    const DramAddress da{0, 0, 0, 3, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    IssueResult w;
    issueWhenReady(Cmd::WR, da, act_at + timing.tRCD, &w);
    std::uint64_t t = act_at + timing.tRAS;
    while (!dev.canIssue(Cmd::PRE, da, t))
        ++t;
    EXPECT_GE(t, w.dataDoneCycle + timing.tWR);
}

TEST_F(DeviceFixture, DataBusBurstsNeverOverlap)
{
    // Alternate reads between two banks; data windows must be
    // disjoint on the shared bus.
    std::uint64_t t = 0;
    std::uint64_t prev_data_end = 0;
    for (int i = 0; i < 20; ++i) {
        const DramAddress da{0, 0, static_cast<std::uint32_t>(i % 2),
                             4, static_cast<std::uint32_t>(i)};
        if (!dev.isRowOpen(da))
            t = issueWhenReady(Cmd::ACT, da, t) + 1;
        IssueResult r;
        t = issueWhenReady(Cmd::RD, da, t, &r) + 1;
        const std::uint64_t data_start =
            r.dataDoneCycle - timing.dataCycles();
        EXPECT_GE(data_start, prev_data_end)
            << "burst " << i << " overlaps the previous one";
        prev_data_end = r.dataDoneCycle;
    }
}

TEST_F(DeviceFixture, RefreshRequiresAllBanksClosed)
{
    const DramAddress da{0, 0, 2, 7, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    EXPECT_FALSE(dev.canIssue(Cmd::REF, {0, 0, 0, 0, 0},
                              act_at + timing.tRAS + timing.tRP + 10));
    const auto pre_at = issueWhenReady(Cmd::PRE, da, act_at + 1);
    std::uint64_t t = pre_at + timing.tRP;
    while (!dev.canIssue(Cmd::REF, {0, 0, 0, 0, 0}, t))
        ++t;
    dev.issue(Cmd::REF, {0, 0, 0, 0, 0}, t);
    // tRFC blocks every bank.
    EXPECT_FALSE(dev.canIssue(Cmd::ACT, da, t + timing.tRFC - 1));
    EXPECT_TRUE(dev.canIssue(Cmd::ACT, da, t + timing.tRFC));
}

TEST_F(DeviceFixture, RefreshDebtAccounting)
{
    EXPECT_EQ(dev.refreshDebt(0, timing.tREFI - 1), 0u);
    EXPECT_EQ(dev.refreshDebt(0, timing.tREFI), 1u);
    EXPECT_EQ(dev.refreshDebt(0, 3 * timing.tREFI + 5), 3u);
    std::uint64_t t = timing.tREFI;
    while (!dev.canIssue(Cmd::REF, {0, 0, 0, 0, 0}, t))
        ++t;
    dev.issue(Cmd::REF, {0, 0, 0, 0, 0}, t);
    EXPECT_EQ(dev.refreshDebt(0, timing.tREFI), 0u);
}

TEST_F(DeviceFixture, CommandBusOneCommandPerCycle)
{
    const DramAddress a{0, 0, 0, 1, 0}, b{0, 0, 5, 1, 0};
    const auto t = issueWhenReady(Cmd::ACT, a, timing.tRRD + 1);
    // Any other command in the same cycle is rejected (command bus).
    EXPECT_FALSE(dev.canIssue(Cmd::ACT, b, t));
    EXPECT_FALSE(dev.canIssue(Cmd::PRE, a, t));
}

TEST_F(DeviceFixture, StatsCountCommands)
{
    const DramAddress da{0, 0, 0, 1, 0};
    const auto act_at = issueWhenReady(Cmd::ACT, da, 0);
    issueWhenReady(Cmd::RD, da, act_at + timing.tRCD);
    EXPECT_EQ(dev.stats().counter("cmd.ACT"), 1u);
    EXPECT_EQ(dev.stats().counter("cmd.RD"), 1u);
}

TEST_F(DeviceFixture, IllegalIssuePanics)
{
    const DramAddress da{0, 0, 0, 1, 0};
    EXPECT_DEATH(dev.issue(Cmd::RD, da, 0), "illegal RD");
}

TEST_F(DeviceFixture, OutOfRangeRankPanicsInEveryQuery)
{
    const DramAddress da{0, tableIiOrg().ranksPerChannel, 0, 1, 0};
    EXPECT_DEATH(dev.isRowHit(da), "bank index out of range: rank=");
    EXPECT_DEATH(dev.canIssue(Cmd::ACT, da, 0),
                 "bank index out of range: rank=");
    EXPECT_DEATH(dev.earliestIssue(Cmd::ACT, da),
                 "bank index out of range: rank=");
}

TEST_F(DeviceFixture, OutOfRangeBankPanicsInEveryQuery)
{
    const DramAddress da{0, 0, tableIiOrg().banksPerRank, 1, 0};
    EXPECT_DEATH(dev.isRowHit(da), "bank index out of range: rank=0 bank=");
    // The check precedes the command-bus test, so it fires even while
    // the bus is busy.
    dev.issue(Cmd::ACT, DramAddress{0, 0, 0, 1, 0}, 0);
    EXPECT_DEATH(dev.canIssue(Cmd::RD, da, 0),
                 "bank index out of range: rank=0 bank=");
    EXPECT_DEATH(dev.earliestIssue(Cmd::PRE, da),
                 "bank index out of range: rank=0 bank=");
}

/**
 * Property: a random but legality-gated command stream never produces
 * overlapping data bursts and row state stays consistent.
 */
class DeviceRandomProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DeviceRandomProperty, RandomLegalStreamKeepsInvariants)
{
    DramTiming timing;
    DramDevice dev(tableIiOrg(), timing);
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 1);
    std::uint64_t prev_data_end = 0;
    std::uint64_t issued = 0;

    for (std::uint64_t t = 0; t < 30000 && issued < 600; ++t) {
        DramAddress da{0, 0,
                       static_cast<std::uint32_t>(rng.below(8)),
                       static_cast<std::uint32_t>(rng.below(64)),
                       static_cast<std::uint32_t>(rng.below(128))};
        const int choice = static_cast<int>(rng.below(4));
        const Cmd cmd = choice == 0   ? Cmd::ACT
                        : choice == 1 ? Cmd::PRE
                        : choice == 2 ? Cmd::RD
                                      : Cmd::WR;
        if (!dev.canIssue(cmd, da, t))
            continue;
        const auto r = dev.issue(cmd, da, t);
        ++issued;
        if (cmd == Cmd::RD || cmd == Cmd::WR) {
            ASSERT_TRUE(dev.isRowHit(da));
            const std::uint64_t start =
                r.dataDoneCycle - timing.dataCycles();
            ASSERT_GE(start, prev_data_end);
            prev_data_end = r.dataDoneCycle;
        }
        if (cmd == Cmd::ACT) {
            ASSERT_TRUE(dev.isRowOpen(da));
        }
        if (cmd == Cmd::PRE) {
            ASSERT_FALSE(dev.isRowOpen(da));
        }
    }
    EXPECT_GT(issued, 100u) << "stream should make progress";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceRandomProperty,
                         ::testing::Range(0, 10));

} // namespace
} // namespace camo::dram
