// Unit tests for the MFC DMA engine: CBEA command rules, queue
// back-pressure, list vs individual commands, transfer efficiency.
#include <gtest/gtest.h>

#include <climits>
#include <string>

#include "cellsim/mfc.h"
#include "cellsim/memory.h"
#include "cellsim/spec.h"

namespace cellsweep::cell {
namespace {

class MfcTest : public ::testing::Test {
 protected:
  MfcTest() : eib_(spec_), mic_(spec_), mfc_(spec_, &eib_, &mic_, "mfc0") {}

  DmaRequest legal(std::size_t total = 512, std::size_t elem = 512) {
    DmaRequest r;
    r.total_bytes = total;
    r.element_bytes = elem;
    return r;
  }

  CellSpec spec_;
  Eib eib_;
  Mic mic_;
  Mfc mfc_;
};

TEST_F(MfcTest, AcceptsLegalCommands) {
  EXPECT_NO_THROW(mfc_.validate(legal()));
  EXPECT_NO_THROW(mfc_.validate(legal(16 * 1024, 16 * 1024)));
  EXPECT_NO_THROW(mfc_.validate(legal(8, 8)));  // naturally aligned scalar
}

TEST_F(MfcTest, RejectsZeroLength) {
  EXPECT_THROW(mfc_.validate(legal(0, 0)), DmaError);
}

TEST_F(MfcTest, RejectsBadSubQuadwordSizes) {
  // 3, 5, 12 bytes are not legal CBEA transfer sizes.
  for (std::size_t bad : {3u, 5u, 12u})
    EXPECT_THROW(mfc_.validate(legal(bad, bad)), DmaError) << bad;
}

TEST_F(MfcTest, RejectsNonMultipleOf16) {
  EXPECT_THROW(mfc_.validate(legal(400, 24)), DmaError);
  EXPECT_THROW(mfc_.validate(legal(400, 100)), DmaError);
}

TEST_F(MfcTest, RejectsOversizedElement) {
  EXPECT_THROW(mfc_.validate(legal(32 * 1024, 32 * 1024)), DmaError);
}

TEST_F(MfcTest, RejectsOversizedList) {
  // > 2048 elements in one list command.
  DmaRequest r = legal(2100 * 16, 16);
  r.as_list = true;
  EXPECT_THROW(mfc_.validate(r), DmaError);
  // The same shape as individual commands is fine (they are separate
  // commands, not one list).
  r.as_list = false;
  EXPECT_NO_THROW(mfc_.validate(r));
}

TEST_F(MfcTest, RejectsNonPowerOfTwoAlignment) {
  DmaRequest r = legal();
  r.alignment = 100;
  EXPECT_THROW(mfc_.validate(r), DmaError);
}

TEST_F(MfcTest, ElementsComputed) {
  DmaRequest r = legal(1024, 512);
  EXPECT_EQ(r.elements(), 2u);
  r = legal(1025, 512);  // partial trailing element
  EXPECT_EQ(r.elements(), 3u);
}

TEST_F(MfcTest, ElementsDoNotTruncateHugeRequests) {
  // 40 GB in quadword elements is ~2.7e9 elements -- more than INT_MAX.
  // The old int-returning elements() truncated this; pin the exact
  // std::size_t count.
  const std::size_t total = 40ull * 1024 * 1024 * 1024;
  DmaRequest r = legal(total, 16);
  EXPECT_EQ(r.elements(), total / 16);
  EXPECT_GT(r.elements(), static_cast<std::size_t>(INT_MAX));
}

TEST_F(MfcTest, RejectsBankCountOutOfRange) {
  // banks_touched feeds Mic::bank_efficiency; 0, negative or more banks
  // than the chip has must be rejected, not priced.
  for (int bad : {0, -1, 17}) {
    DmaRequest r = legal();
    r.banks_touched = bad;
    EXPECT_THROW(mfc_.validate(r), DmaError) << bad;
  }
  DmaRequest r = legal();
  r.banks_touched = 16;
  EXPECT_NO_THROW(mfc_.validate(r));
  r.banks_touched = 1;
  EXPECT_NO_THROW(mfc_.validate(r));
}

TEST_F(MfcTest, RejectsTagOutOfRange) {
  DmaRequest r = legal();
  r.tag = kMfcTagGroups;  // 5-bit tag: 0..31
  EXPECT_THROW(mfc_.validate(r), DmaError);
  r.tag = kMfcTagGroups - 1;
  EXPECT_NO_THROW(mfc_.validate(r));
}

TEST_F(MfcTest, WaitTagCoversOnlyItsGroup) {
  DmaRequest slow = legal(16 * 1024, 16 * 1024);
  slow.tag = 3;
  DmaRequest fast = legal(16, 16);
  fast.tag = 4;
  const DmaCompletion a = mfc_.submit(0, slow);
  const DmaCompletion b = mfc_.submit(0, fast);
  // Each group waits for its own members only (the shared MIC port
  // serializes the transfers, so the groups drain at different times).
  EXPECT_EQ(mfc_.wait_tag(0, 3), a.done);
  EXPECT_EQ(mfc_.wait_tag(0, 4), b.done);
  EXPECT_NE(a.done, b.done);
  // A drained (or never used) group returns the caller's clock.
  EXPECT_EQ(mfc_.wait_tag(a.done + 7, 3), a.done + 7);
  EXPECT_EQ(mfc_.wait_tag(123, 9), 123u);
  // Groups are monotone: reset clears them.
  mfc_.reset();
  EXPECT_EQ(mfc_.wait_tag(0, 3), 0u);
}

TEST_F(MfcTest, PeakEfficiencyNeeds128ByteMultiples) {
  // 128-byte aligned, multiple-of-128 transfers run at 1.0 (the CBEA
  // "peak performance" rule the paper quotes).
  EXPECT_DOUBLE_EQ(mfc_.transfer_efficiency(512, 128), 1.0);
  EXPECT_DOUBLE_EQ(mfc_.transfer_efficiency(128, 128), 1.0);
  // 400 B aligned: 4 bursts for 400 bytes.
  EXPECT_NEAR(mfc_.transfer_efficiency(400, 128), 400.0 / 512.0, 1e-12);
  // Misaligned 512 B: one extra burst.
  EXPECT_NEAR(mfc_.transfer_efficiency(512, 16), 512.0 / 640.0, 1e-12);
  // Tiny transfers hit the floor.
  EXPECT_GE(mfc_.transfer_efficiency(16, 16), spec_.dma_min_efficiency);
}

TEST_F(MfcTest, ValidatesTrailingPartialElement) {
  // The trailing element is total % element bytes and must itself be a
  // legal CBEA transfer size: 1/2/4/8 or a multiple of 16. A 515-byte
  // transfer in 512-byte elements ends in an illegal 3-byte DMA that the
  // old validator let through silently.
  EXPECT_THROW(mfc_.validate(legal(512 + 3, 512)), DmaError);
  EXPECT_THROW(mfc_.validate(legal(512 + 12, 512)), DmaError);
  // Legal remainders: naturally-aligned scalars and quadword multiples.
  EXPECT_NO_THROW(mfc_.validate(legal(512 + 8, 512)));
  EXPECT_NO_THROW(mfc_.validate(legal(512 + 16, 512)));
  EXPECT_NO_THROW(mfc_.validate(legal(512 + 240, 512)));
}

/// The DmaError text validate() throws for @p req ("" if legal).
std::string rejection(const Mfc& mfc, const DmaRequest& req) {
  try {
    mfc.validate(req);
  } catch (const DmaError& e) {
    return e.what();
  }
  return "";
}

TEST_F(MfcTest, PinsEveryRuleMessage) {
  // deck_runner lint prints these strings (analysis::lint_machine).
  const std::string p = "illegal DMA command: ";
  EXPECT_EQ(rejection(mfc_, legal()), "");
  EXPECT_EQ(rejection(mfc_, legal(0, 0)), p + "zero-length transfer");
  EXPECT_EQ(rejection(mfc_, legal(12, 12)),
            p + "transfers below 16 bytes must be 1, 2, 4 or 8 bytes");
  DmaRequest misaligned = legal(8, 8);
  misaligned.alignment = 4;
  EXPECT_EQ(rejection(mfc_, misaligned),
            p + "sub-quadword transfers must be naturally aligned");
  EXPECT_EQ(rejection(mfc_, legal(400, 100)),
            p + "transfers of 16 bytes or more must be multiples of 16");
  EXPECT_EQ(rejection(mfc_, legal(32 * 1024, 32 * 1024)),
            p + "single transfer exceeds 16 KB");
  EXPECT_EQ(rejection(mfc_, legal(512 + 3, 512)),
            p + "trailing partial transfers below 16 bytes must be 1, 2, 4 "
                "or 8 bytes");
  DmaRequest ragged = legal(512 + 8, 512);
  ragged.alignment = 4;
  EXPECT_EQ(rejection(mfc_, ragged),
            p + "sub-quadword trailing partial transfers must be naturally "
                "aligned");
  EXPECT_EQ(rejection(mfc_, legal(512 + 100, 512)),
            p + "trailing partial transfers of 16 bytes or more must be "
                "multiples of 16");
  EXPECT_EQ(rejection(mfc_, legal(2100 * 16, 16)),
            p + "DMA list must have 1..2048 elements");
  DmaRequest odd_alignment = legal();
  odd_alignment.alignment = 100;
  EXPECT_EQ(rejection(mfc_, odd_alignment),
            p + "alignment must be a power of two");
  DmaRequest no_banks = legal();
  no_banks.banks_touched = 0;
  EXPECT_EQ(rejection(mfc_, no_banks),
            p + "banks_touched must be in 1..16, got 0");
  DmaRequest bad_tag = legal();
  bad_tag.tag = kMfcTagGroups;
  EXPECT_EQ(rejection(mfc_, bad_tag), p + "tag group must be 0..31");
}

TEST_F(MfcTest, JoinsViolationsWithSemicolons) {
  DmaRequest r = legal();
  r.alignment = 100;
  r.tag = kMfcTagGroups;
  EXPECT_EQ(rejection(mfc_, r),
            "illegal DMA command: alignment must be a power of two; tag "
            "group must be 0..31");
  r = legal(12, 12);
  r.banks_touched = 17;
  EXPECT_EQ(rejection(mfc_, r),
            "illegal DMA command: transfers below 16 bytes must be 1, 2, 4 "
            "or 8 bytes; banks_touched must be in 1..16, got 17");
}

TEST_F(MfcTest, TrailingPartialElementLowersEfficiency) {
  // Full 512-byte elements at 128-byte alignment run at peak; a 240-byte
  // trailing element occupies two 128-byte bursts for 240 bytes, so the
  // blended request efficiency must drop below 1 but stay above the
  // trailing element's own efficiency.
  DmaRequest exact = legal(2 * 512, 512);
  exact.alignment = 128;
  EXPECT_DOUBLE_EQ(mfc_.request_efficiency(exact), 1.0);

  DmaRequest ragged = legal(2 * 512 + 240, 512);
  ragged.alignment = 128;
  const double eff = mfc_.request_efficiency(ragged);
  EXPECT_LT(eff, 1.0);
  EXPECT_GT(eff, mfc_.transfer_efficiency(240, 128));
  // Exact blend: 1024 B at cost 1024 + 240 B at cost 256.
  EXPECT_NEAR(eff, 1264.0 / (1024.0 + 256.0), 1e-12);
}

TEST_F(MfcTest, RaggedTailCostsFullBursts) {
  // The real-time consequence of the efficiency fix: a 240-byte tail
  // occupies two full 128-byte bursts, so a 4336-byte ragged request
  // costs exactly as much bus time as a 4352-byte one with the same
  // element count.
  DmaRequest ragged = legal(8 * 512 + 240, 512);
  ragged.alignment = 128;
  DmaRequest padded = legal(8 * 512 + 256, 512);
  padded.alignment = 128;
  ASSERT_EQ(ragged.elements(), padded.elements());
  Eib eib2(spec_);
  Mic mic2(spec_);
  Mfc other(spec_, &eib2, &mic2, "mfc1");
  const sim::Tick t_ragged = mfc_.submit(0, ragged).done;
  const sim::Tick t_padded = other.submit(0, padded).done;
  EXPECT_EQ(t_ragged, t_padded);
}

TEST_F(MfcTest, QueueOccupancyHistogram) {
  EXPECT_EQ(mfc_.queue_depth(), spec_.mfc_queue_depth);
  for (int i = 0; i < 4; ++i) mfc_.submit(0, legal(16 * 1024, 16 * 1024));
  const auto& hist = mfc_.occupancy_histogram();
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < hist.size(); ++d) total += hist[d];
  EXPECT_EQ(total, mfc_.commands());
  // Back-to-back submissions at t=0 see 0,1,2,3 prior commands in flight.
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[3], 1u);
  mfc_.reset();
  std::uint64_t after = 0;
  for (std::size_t d = 0; d < hist.size(); ++d) after += hist[d];
  EXPECT_EQ(after, 0u);
}

TEST_F(MfcTest, CompletionReportsQueueExit) {
  // `start` is when the command left the queue and began moving data:
  // never before issue and never after completion.
  const DmaCompletion c = mfc_.submit(0, legal(16 * 1024, 16 * 1024));
  EXPECT_GE(c.start, c.issue_done);
  EXPECT_LT(c.start, c.done);
}

TEST_F(MfcTest, ListIssueCheaperThanIndividual) {
  DmaRequest list = legal(64 * 512, 512);
  list.as_list = true;
  DmaRequest indiv = list;
  indiv.as_list = false;
  const DmaCompletion a = mfc_.submit(0, list);
  Mfc other(spec_, &eib_, &mic_, "mfc1");
  const DmaCompletion b = other.submit(0, indiv);
  // SPU-side issue: 64 channel commands vs one list command.
  EXPECT_LT(a.issue_done, b.issue_done);
}

TEST_F(MfcTest, CompletionAfterIssue) {
  const DmaCompletion c = mfc_.submit(1000, legal());
  EXPECT_GT(c.issue_done, 1000u);
  EXPECT_GT(c.done, c.issue_done);
}

TEST_F(MfcTest, QueueBackPressure) {
  // Saturate the 16-deep queue with large transfers; the 17th must
  // wait for a slot.
  sim::Tick first_done = 0;
  for (int i = 0; i < 16; ++i) {
    const DmaCompletion c = mfc_.submit(0, legal(16 * 1024, 16 * 1024));
    if (i == 0) first_done = c.done;
  }
  const DmaCompletion overflow = mfc_.submit(0, legal(16, 16));
  EXPECT_GE(overflow.done, first_done);
  EXPECT_EQ(mfc_.commands(), 17u);
}

TEST_F(MfcTest, WaitAllCoversOutstanding) {
  const DmaCompletion c = mfc_.submit(0, legal(16 * 1024, 16 * 1024));
  EXPECT_EQ(mfc_.wait_all(0), c.done);
  EXPECT_EQ(mfc_.wait_all(c.done + 5), c.done + 5);
}

TEST_F(MfcTest, TracksBytesAndTransfers) {
  mfc_.submit(0, legal(1024, 512));
  EXPECT_DOUBLE_EQ(mfc_.bytes_requested(), 1024.0);
  EXPECT_EQ(mfc_.transfers(), 2u);
  mfc_.reset();
  EXPECT_DOUBLE_EQ(mfc_.bytes_requested(), 0.0);
}

TEST_F(MfcTest, LsToLsSkipsMemoryController) {
  DmaRequest ls = legal(4096, 4096);
  ls.ls_to_ls = true;
  const double before = mic_.bytes_moved();
  mfc_.submit(0, ls);
  EXPECT_DOUBLE_EQ(mic_.bytes_moved(), before);  // MIC untouched
  EXPECT_GT(eib_.bytes_moved(), 0.0);
}

TEST_F(MfcTest, LsToLsFasterThanMemory) {
  DmaRequest mem = legal(16 * 1024, 16 * 1024);
  DmaRequest ls = mem;
  ls.ls_to_ls = true;
  Mfc a(spec_, &eib_, &mic_, "a");
  Eib eib2(spec_);
  Mic mic2(spec_);
  Mfc b(spec_, &eib2, &mic2, "b");
  const sim::Tick t_mem = a.submit(0, mem).done;
  const sim::Tick t_ls = b.submit(0, ls).done;
  EXPECT_LT(t_ls, t_mem);
}

TEST_F(MfcTest, SharedMicSerializesAcrossSpes) {
  Mfc other(spec_, &eib_, &mic_, "mfc1");
  const DmaCompletion a = mfc_.submit(0, legal(16 * 1024, 16 * 1024));
  const DmaCompletion b = other.submit(0, legal(16 * 1024, 16 * 1024));
  EXPECT_GT(b.done, a.done);  // FIFO on the shared port
}

TEST_F(MfcTest, RequiresResources) {
  EXPECT_THROW(Mfc(spec_, nullptr, &mic_, "x"), DmaError);
  EXPECT_THROW(Mfc(spec_, &eib_, nullptr, "x"), DmaError);
}

}  // namespace
}  // namespace cellsweep::cell
