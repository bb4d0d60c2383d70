/**
 * @file
 * The journal file format's crash-consistency contract, byte by byte:
 *
 *  - RunSpec and Epoch codecs round-trip every field;
 *  - a recorded image parses back to exactly the sealed epochs;
 *  - truncation at EVERY byte offset either recovers to the last
 *    sealed epoch (torn tail at EOF) or throws JournalError (severed
 *    header) — it never crashes and never invents an epoch;
 *  - corrupting bytes of a sealed frame is detected (checksum stamp),
 *    never silently accepted as different epoch contents;
 *  - resume verifies the sealed prefix field-by-field and rejects a
 *    divergent re-execution with a named-field diagnostic.
 */
#include "journal/journal.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "integrity/checksum.h"

namespace approxhadoop::journal {
namespace {

RunSpec
makeSpec()
{
    RunSpec spec;
    spec.app = "wikilength";
    spec.precise = false;
    spec.blocks = 120;
    spec.items = 200;
    spec.seed = 7;
    spec.reducers = 4;
    spec.threads = 8;
    spec.cluster = "10xeon+20atom";
    spec.sampling = 0.2;
    spec.drop = 0.1;
    spec.has_target = true;
    spec.target = 0.03;
    spec.confidence = 0.99;
    spec.pilot_maps = 12;
    spec.pilot_ratio = 0.5;
    spec.s3 = true;
    spec.failure_mode = "absorb";
    spec.max_attempts = 3;
    spec.checkpoint_interval = 16;
    spec.heartbeat_ms = 500.0;
    spec.timeout_ms = 8000.0;
    spec.fault_plan = "crash=0.05,seed=9";
    spec.endgame_left_percent = 30.0;
    spec.map_interval = 5;
    return spec;
}

Epoch
makeEpoch(uint64_t index)
{
    Epoch e;
    e.index = index;
    e.kind = Epoch::kWave;
    e.wave = static_cast<int32_t>(index);
    e.sim_time = 1.5 * static_cast<double>(index + 1);
    e.maps_completed = 10 * (index + 1);
    e.maps_terminal = 10 * (index + 1) + 2;
    e.counters_blob = "counters-" + std::to_string(index);
    e.delivered = {{index, 0xdeadbeef + index}, {index + 1, 42}};
    e.rng_digest = 0x1234 + index;
    e.pending_sampling_ratio = 0.25;
    e.pending_approx_fraction = 0.75;
    e.controller_blob = "ctl-" + std::to_string(index);
    e.reducer_state = {"r0-" + std::to_string(index), ""};
    e.reducer_records = {100 + index, 200 + index};
    return e;
}

void
expectEpochEq(const Epoch& a, const Epoch& b)
{
    // epochMismatch is the production comparator; "" means identical.
    EXPECT_EQ(epochMismatch(a, b), "");
}

TEST(JournalFormatTest, RunSpecRoundTripsEveryField)
{
    RunSpec spec = makeSpec();
    RunSpec back = RunSpec::deserialize(spec.serialize());
    EXPECT_EQ(back.app, spec.app);
    EXPECT_EQ(back.precise, spec.precise);
    EXPECT_EQ(back.blocks, spec.blocks);
    EXPECT_EQ(back.items, spec.items);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.reducers, spec.reducers);
    EXPECT_EQ(back.threads, spec.threads);
    EXPECT_EQ(back.cluster, spec.cluster);
    EXPECT_DOUBLE_EQ(back.sampling, spec.sampling);
    EXPECT_DOUBLE_EQ(back.drop, spec.drop);
    EXPECT_EQ(back.has_target, spec.has_target);
    EXPECT_DOUBLE_EQ(back.target, spec.target);
    EXPECT_DOUBLE_EQ(back.confidence, spec.confidence);
    EXPECT_EQ(back.pilot_maps, spec.pilot_maps);
    EXPECT_DOUBLE_EQ(back.pilot_ratio, spec.pilot_ratio);
    EXPECT_EQ(back.s3, spec.s3);
    EXPECT_EQ(back.failure_mode, spec.failure_mode);
    EXPECT_EQ(back.max_attempts, spec.max_attempts);
    EXPECT_EQ(back.checkpoint_interval, spec.checkpoint_interval);
    EXPECT_DOUBLE_EQ(back.heartbeat_ms, spec.heartbeat_ms);
    EXPECT_DOUBLE_EQ(back.timeout_ms, spec.timeout_ms);
    EXPECT_EQ(back.fault_plan, spec.fault_plan);
    EXPECT_DOUBLE_EQ(back.endgame_left_percent,
                     spec.endgame_left_percent);
    EXPECT_EQ(back.map_interval, spec.map_interval);
}

TEST(JournalFormatTest, EpochRoundTripsEveryField)
{
    Epoch e = makeEpoch(3);
    e.kind = Epoch::kInterval;
    e.wave = -1;
    Epoch back = decodeEpoch(encodeEpoch(e));
    expectEpochEq(e, back);
    EXPECT_EQ(back.kind, Epoch::kInterval);
    EXPECT_EQ(back.index, 3u);
}

TEST(JournalFormatTest, MalformedBlobsThrowNotCrash)
{
    EXPECT_THROW(RunSpec::deserialize(""), JournalError);
    EXPECT_THROW(RunSpec::deserialize("garbage"), JournalError);
    EXPECT_THROW(decodeEpoch(""), JournalError);
    EXPECT_THROW(decodeEpoch(std::string(64, 'x')), JournalError);
}

/** A three-epoch in-memory journal for the byte-level tests. */
std::string
recordedImage()
{
    std::unique_ptr<JobJournal> jj = JobJournal::createInMemory(makeSpec());
    for (uint64_t i = 0; i < 3; ++i) {
        jj->onEpoch(makeEpoch(i));
    }
    return jj->bytes();
}

TEST(JournalFormatTest, RecordedImageParsesBack)
{
    std::string image = recordedImage();
    LoadedJournal loaded = parseJournal(image);
    EXPECT_EQ(loaded.spec.app, "wikilength");
    EXPECT_EQ(loaded.spec.map_interval, 5u);
    ASSERT_EQ(loaded.epochs.size(), 3u);
    EXPECT_FALSE(loaded.torn_tail);
    EXPECT_EQ(loaded.resume_markers, 0u);
    EXPECT_EQ(loaded.sealed_bytes, image.size());
    for (uint64_t i = 0; i < 3; ++i) {
        expectEpochEq(loaded.epochs[i], makeEpoch(i));
    }
}

/** The on-disk frame, built independently of JobJournal:
 *  [u64 len][payload][u64 xxh64(payload, seed "JNL1")], little-endian. */
std::string
frameByHand(const std::string& payload)
{
    auto put = [](std::string& out, uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
        }
    };
    std::string out;
    put(out, payload.size());
    out += payload;
    put(out, integrity::hash64(payload.data(), payload.size(), 0x4A4E4C31u));
    return out;
}

TEST(JournalFormatTest, RecordedImageIsMagicPlusFramedEncodings)
{
    // Epochs are encoded straight into the image; the bytes must still be
    // exactly the framed encodeEpoch() payloads.
    std::string expected = "AXHJNL1\n" + frameByHand(makeSpec().serialize());
    for (uint64_t i = 0; i < 3; ++i) {
        expected += frameByHand(encodeEpoch(makeEpoch(i)));
    }
    EXPECT_EQ(recordedImage(), expected);
}

TEST(JournalFormatTest, OlderHeaderVersionIsRejectedByVersion)
{
    // Version 1 hashed the driver RNG's text form; version 2 stored
    // precise reducers' buffered records. Both headers are refused
    // before any epoch is compared.
    for (int version : {1, 2}) {
        std::string header = makeSpec().serialize();
        header[0] = static_cast<char>(version);  // little-endian u64
        std::string image = "AXHJNL1\n" + frameByHand(header);
        std::string want =
            "unsupported header version " + std::to_string(version);
        try {
            parseJournal(image);
            ADD_FAILURE() << "version-" << version << " header accepted";
        } catch (const JournalError& e) {
            EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
                << e.what();
        }
    }
}

TEST(JournalFormatTest, TruncationAtEveryByteRecoversOrThrows)
{
    std::string image = recordedImage();
    size_t last_count = 0;
    for (size_t len = 0; len <= image.size(); ++len) {
        std::string prefix = image.substr(0, len);
        try {
            LoadedJournal loaded = parseJournal(prefix);
            // Recovered: the sealed prefix must be an exact prefix of
            // the original epoch stream, never an invented epoch, and
            // epoch count must grow monotonically with the cut point.
            ASSERT_LE(loaded.epochs.size(), 3u) << "cut at " << len;
            ASSERT_GE(loaded.epochs.size(), last_count)
                << "cut at " << len;
            last_count = loaded.epochs.size();
            for (size_t i = 0; i < loaded.epochs.size(); ++i) {
                expectEpochEq(loaded.epochs[i],
                              makeEpoch(static_cast<uint64_t>(i)));
            }
            ASSERT_EQ(loaded.torn_tail, len != loaded.sealed_bytes)
                << "cut at " << len;
        } catch (const JournalError&) {
            // A cut inside the magic or the header frame cannot
            // recover — rejecting loudly is the contract. Cuts past
            // the header never throw.
            ASSERT_EQ(last_count, 0u)
                << "cut at " << len
                << " threw after epochs were recoverable";
        }
    }
    EXPECT_EQ(last_count, 3u) << "full image did not recover all epochs";
}

TEST(JournalFormatTest, ByteFlipsNeverYieldWrongEpochs)
{
    std::string image = recordedImage();
    for (size_t pos = 0; pos < image.size(); ++pos) {
        std::string bad = image;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
        try {
            LoadedJournal loaded = parseJournal(bad);
            // Accepted: the flip must have been absorbed as a torn
            // tail (e.g. a length field now pointing past EOF). Every
            // epoch that DID parse must still be bit-exact — a flip may
            // lose sealed epochs, never alter one.
            ASSERT_LE(loaded.epochs.size(), 3u) << "flip at " << pos;
            for (size_t i = 0; i < loaded.epochs.size(); ++i) {
                expectEpochEq(loaded.epochs[i],
                              makeEpoch(static_cast<uint64_t>(i)));
            }
            ASSERT_TRUE(loaded.torn_tail || loaded.epochs.size() == 3u)
                << "flip at " << pos
                << " silently dropped sealed epochs";
        } catch (const JournalError&) {
            // Detected — the expected outcome for payload/checksum
            // flips.
        }
    }
}

TEST(JournalFormatTest, ResumeVerifiesThenAppends)
{
    std::string image = recordedImage();
    std::unique_ptr<JobJournal> jj = JobJournal::resumeBytes(image);
    EXPECT_EQ(jj->resumeCount(), 1u);
    EXPECT_EQ(jj->epochsToVerify(), 3u);

    // Re-executed epochs matching the sealed prefix verify silently...
    for (uint64_t i = 0; i < 3; ++i) {
        jj->onEpoch(makeEpoch(i));
    }
    EXPECT_EQ(jj->epochsToVerify(), 0u);
    // ...and the journal then switches to append mode.
    jj->onEpoch(makeEpoch(3));
    LoadedJournal reloaded = parseJournal(jj->bytes());
    ASSERT_EQ(reloaded.epochs.size(), 5u);  // 3 sealed + marker + 1 new
    EXPECT_EQ(reloaded.resume_markers, 1u);

    // A second resume sees the survived crash.
    std::unique_ptr<JobJournal> again = JobJournal::resumeBytes(jj->bytes());
    EXPECT_EQ(again->resumeCount(), 2u);
    EXPECT_EQ(again->epochsToVerify(), 4u);
}

TEST(JournalFormatTest, DivergentResumeThrowsNamedFieldDiagnostic)
{
    std::unique_ptr<JobJournal> jj = JobJournal::resumeBytes(recordedImage());
    Epoch diverged = makeEpoch(0);
    diverged.rng_digest ^= 1;
    try {
        jj->onEpoch(diverged);
        FAIL() << "divergent epoch was accepted";
    } catch (const JournalError& e) {
        EXPECT_NE(std::string(e.what()).find("RNG"), std::string::npos)
            << "diagnostic does not name the field: " << e.what();
        EXPECT_NE(std::string(e.what()).find("diverged"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JournalFormatTest, ResumeRejectsHeaderlessOrCorruptImages)
{
    EXPECT_THROW(JobJournal::resumeBytes(""), JournalError);
    EXPECT_THROW(JobJournal::resumeBytes("AXHJNL1\n"), JournalError);
    EXPECT_THROW(JobJournal::resumeBytes("not a journal at all"),
                 JournalError);
}

}  // namespace
}  // namespace approxhadoop::journal
