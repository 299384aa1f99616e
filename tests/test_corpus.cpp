#include "fuzz/corpus.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace swarmfuzz::fuzz {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path{::testing::TempDir()} /
          ("swarmfuzz_corpus_" + name))
      .string();
}

ObjectiveEval eval_with(std::vector<double> clearance, double f = 3.0,
                        double t_min = 20.0, double separation = 8.0,
                        bool success = false) {
  ObjectiveEval eval;
  eval.f = f;
  eval.success = success;
  eval.drone_clearance = std::move(clearance);
  eval.min_clearance_time = t_min;
  eval.min_avg_separation = separation;
  return eval;
}

CorpusEntry entry_with(std::vector<std::uint32_t> signature, double cost,
                       double t_start = 10.0) {
  CorpusEntry entry;
  entry.seed = Seed{.target = 1, .victim = 2,
                    .direction = attack::SpoofDirection::kLeft,
                    .vdo = 4.5, .influence = 0.25};
  entry.t_start = t_start;
  entry.duration = 12.0;
  entry.f = 1.5;
  entry.cost = cost;
  entry.signature = std::move(signature);
  return entry;
}

TEST(Corpus, SignatureIsDeterministicSortedAndUnique) {
  const ObjectiveEval eval = eval_with({3.0, 15.0, 0.4}, 2.5, 30.0, 6.0);
  const auto a = novelty_signature(eval, 120.0, NoveltyConfig{});
  const auto b = novelty_signature(eval, 120.0, NoveltyConfig{});
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
}

TEST(Corpus, SignatureSeparatesDistinctBehaviors) {
  const auto near = novelty_signature(eval_with({0.5, 0.7}), 120.0, {});
  const auto far = novelty_signature(eval_with({25.0, 27.0}), 120.0, {});
  EXPECT_NE(near, far);
}

TEST(Corpus, SignatureBinsNonFiniteFeaturesDeterministically) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto with_inf = novelty_signature(eval_with({kInf, 3.0}), 120.0, {});
  const auto with_nan = novelty_signature(eval_with({kNaN, 3.0}), 120.0, {});
  EXPECT_EQ(with_inf, novelty_signature(eval_with({kInf, 3.0}), 120.0, {}));
  EXPECT_EQ(with_nan, novelty_signature(eval_with({kNaN, 3.0}), 120.0, {}));
  // Infinity pegs the top clearance bucket, NaN the bottom one.
  EXPECT_NE(with_inf, with_nan);
}

TEST(Corpus, AdmitsOnlyNovelSignatures) {
  Corpus corpus;
  EXPECT_TRUE(corpus.admit(entry_with({1, 2}, 1.0)));
  EXPECT_FALSE(corpus.admit(entry_with({1, 2}, 0.5)));  // nothing new
  EXPECT_FALSE(corpus.admit(entry_with({2}, 0.1)));     // subset of lit bins
  EXPECT_TRUE(corpus.admit(entry_with({2, 3}, 2.0)));   // bin 3 is fresh
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.bins_lit(), 3);
  EXPECT_EQ(corpus.admissions(), 2);
}

TEST(Corpus, MinimizeKeepsCheapestEntryPerBin) {
  Corpus corpus;
  ASSERT_TRUE(corpus.admit(entry_with({1, 2}, 5.0, 10.0)));
  ASSERT_TRUE(corpus.admit(entry_with({2, 3}, 1.0, 20.0)));
  ASSERT_TRUE(corpus.admit(entry_with({1, 4}, 2.0, 30.0)));
  corpus.minimize();
  // Bin 1 is covered cheaper by the third entry, bin 2 by the second; the
  // first entry no longer covers anything exclusively and is dropped.
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_DOUBLE_EQ(corpus.entries()[0].t_start, 20.0);
  EXPECT_DOUBLE_EQ(corpus.entries()[1].t_start, 30.0);
  EXPECT_EQ(corpus.bins_lit(), 4);  // coverage is invariant
  EXPECT_EQ(corpus.admissions(), 3);
}

TEST(Corpus, MinimizeBreaksCostTiesByAdmissionOrder) {
  Corpus corpus;
  ASSERT_TRUE(corpus.admit(entry_with({1}, 5.0, 10.0)));
  ASSERT_TRUE(corpus.admit(entry_with({1, 2}, 5.0, 20.0)));
  ASSERT_TRUE(corpus.admit(entry_with({2, 3}, 1.0, 30.0)));
  corpus.minimize();
  // Bin 1: tie at cost 5 between the first two -> earliest admission wins,
  // so the middle entry loses both its bins and is dropped.
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_DOUBLE_EQ(corpus.entries()[0].t_start, 10.0);
  EXPECT_DOUBLE_EQ(corpus.entries()[1].t_start, 30.0);
}

TEST(Corpus, AutoMinimizesAboveMaxEntries) {
  Corpus corpus(2);
  ASSERT_TRUE(corpus.admit(entry_with({1}, 5.0)));
  ASSERT_TRUE(corpus.admit(entry_with({1, 2}, 5.0)));
  ASSERT_TRUE(corpus.admit(entry_with({2, 3}, 1.0)));
  EXPECT_LE(corpus.size(), 2u);
  EXPECT_EQ(corpus.bins_lit(), 3);
}

TEST(Corpus, JsonlRoundTripIsExact) {
  CorpusEntry entry;
  entry.seed = Seed{.target = 3, .victim = 0,
                    .direction = attack::SpoofDirection::kRight,
                    .vdo = 0.1 + 0.2, .influence = 1.0 / 3.0};
  entry.t_start = 2.2250738585072014e-305;  // %.17g stress values
  entry.duration = 19.937562499999999;
  entry.f = std::numeric_limits<double>::quiet_NaN();  // JSON null path
  entry.cost = 100.0 - 19.937562499999999;
  entry.signature = {7u, (1u << 24) + 3u, (5u << 24) + 1u};

  const CorpusEntry back = corpus_entry_from_json(to_jsonl(entry));
  EXPECT_EQ(back.seed.target, entry.seed.target);
  EXPECT_EQ(back.seed.victim, entry.seed.victim);
  EXPECT_EQ(back.seed.direction, entry.seed.direction);
  EXPECT_DOUBLE_EQ(back.seed.vdo, entry.seed.vdo);
  EXPECT_DOUBLE_EQ(back.seed.influence, entry.seed.influence);
  EXPECT_DOUBLE_EQ(back.t_start, entry.t_start);
  EXPECT_DOUBLE_EQ(back.duration, entry.duration);
  EXPECT_TRUE(std::isnan(back.f));
  EXPECT_DOUBLE_EQ(back.cost, entry.cost);
  EXPECT_EQ(back.signature, entry.signature);
}

TEST(Corpus, SaveLoadRoundTrip) {
  const std::string path = temp_path("roundtrip.jsonl");
  std::filesystem::remove(path);
  Corpus corpus;
  ASSERT_TRUE(corpus.admit(entry_with({1, 2}, 5.0, 11.0)));
  ASSERT_TRUE(corpus.admit(entry_with({3}, 1.0, 22.0)));
  save_corpus(corpus, path);

  const std::vector<CorpusEntry> loaded = load_corpus(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0].t_start, 11.0);
  EXPECT_DOUBLE_EQ(loaded[1].t_start, 22.0);
  EXPECT_EQ(loaded[0].signature, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(loaded[1].signature, (std::vector<std::uint32_t>{3}));
  std::filesystem::remove(path);
}

TEST(Corpus, LoadHealsTornFinalLine) {
  const std::string path = temp_path("torn.jsonl");
  std::filesystem::remove(path);
  Corpus corpus;
  ASSERT_TRUE(corpus.admit(entry_with({1}, 1.0, 11.0)));
  save_corpus(corpus, path);
  {
    // Simulate a crash mid-append: a frame fragment with no newline.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"crc\":\"deadbeef\",\"data\":{\"target\":1,";
  }
  const std::vector<CorpusEntry> loaded = load_corpus(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].t_start, 11.0);
  std::filesystem::remove(path);
}

TEST(Corpus, LoadThrowsOnCorruptCompleteLine) {
  const std::string path = temp_path("corrupt.jsonl");
  std::filesystem::remove(path);
  Corpus corpus;
  ASSERT_TRUE(corpus.admit(entry_with({1}, 1.0)));
  ASSERT_TRUE(corpus.admit(entry_with({2}, 1.0)));
  save_corpus(corpus, path);

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Flip a digit inside the first line's payload: the line is complete
  // (newline-terminated) but its CRC no longer matches.
  const auto digit = text.find_last_of("0123456789", text.find('\n'));
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '7' ? '8' : '7';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW((void)load_corpus(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Corpus, LoadThrowsOnUnframedCompleteLine) {
  // Every corpus line is CRC-framed, so a well-formed entry without its crc
  // member is corruption, not an older format to accept unchecked.
  const std::string path = temp_path("unframed.jsonl");
  std::string unframed = to_jsonl(entry_with({2}, 1.0));
  unframed.erase(unframed.rfind(",\"crc\":\""), 17);
  ASSERT_EQ(unframed.back(), '}');
  EXPECT_THROW((void)corpus_entry_from_json(unframed), std::invalid_argument);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << to_jsonl(entry_with({1}, 1.0)) << '\n' << unframed << '\n';
  }
  EXPECT_THROW((void)load_corpus(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Corpus, LoadThrowsOnNonFiniteWindowOrCost) {
  // A CRC-valid line whose t_start, duration or cost is null (NaN) is a
  // corrupt complete line: loading it would hand E_Fuzz a NaN window.
  const std::string path = temp_path("nonfinite.jsonl");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double CorpusEntry::*field :
       {&CorpusEntry::t_start, &CorpusEntry::duration, &CorpusEntry::cost}) {
    CorpusEntry entry = entry_with({1}, 1.0);
    entry.*field = nan;
    const std::string line = to_jsonl(entry);
    EXPECT_NE(line.find("null"), std::string::npos) << line;
    EXPECT_THROW((void)corpus_entry_from_json(line), std::invalid_argument);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << to_jsonl(entry_with({2}, 1.0)) << '\n' << line << '\n';
    }
    EXPECT_THROW((void)load_corpus(path), std::runtime_error);
  }
  std::filesystem::remove(path);
}

TEST(Corpus, LoadAcceptsInfiniteObjectiveAndVdo) {
  // f and vdo are +inf for a victim that never nears an obstacle; they
  // round-trip through JSON null as NaN and stay loadable.
  CorpusEntry entry = entry_with({1}, 1.0);
  entry.f = std::numeric_limits<double>::infinity();
  entry.seed.vdo = std::numeric_limits<double>::infinity();
  const CorpusEntry back = corpus_entry_from_json(to_jsonl(entry));
  EXPECT_TRUE(std::isnan(back.f));
  EXPECT_TRUE(std::isnan(back.seed.vdo));
  EXPECT_DOUBLE_EQ(back.t_start, entry.t_start);
}

TEST(Corpus, LoadMissingFileYieldsEmpty) {
  EXPECT_TRUE(load_corpus(temp_path("does_not_exist.jsonl")).empty());
}

}  // namespace
}  // namespace swarmfuzz::fuzz
