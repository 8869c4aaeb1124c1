// The lint wall's own wall.
//
// Three layers of assurance:
//   1. Engine unit tests — the comment/string blanker, whole-token
//      matching and inline suppressions, i.e. everything a token-based
//      linter can get subtly wrong (digit separators opening a phantom
//      char literal is the classic).
//   2. Fixture corpus — for every rule, a violating mini-tree that must
//      fire and a clean mini-tree that must stay silent.  The fixtures
//      live under tools/lint/testdata/, which WalkTree() deliberately
//      skips so the corpus never trips the self-run.
//   3. Self-run — the shipped tree is lint-clean, and the transcript
//      layers (src/protocol/, src/crypto/) carry ZERO suppressions:
//      the determinism and backend-include guarantees hold with no
//      escape hatches spent.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace pem::lint {
namespace {

namespace fs = std::filesystem;

const fs::path kTestdata = PEM_LINT_TESTDATA;
const fs::path kSourceRoot = PEM_SOURCE_ROOT;

std::vector<Finding> LintFixture(const std::string& kind,
                                 const std::string& rule) {
  const fs::path root = kTestdata / kind / rule;
  EXPECT_TRUE(fs::is_directory(root)) << root;
  const Registry registry = MakeDefaultRegistry();
  return RunLint(root, WalkTree(root), registry, {rule}, {});
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) n += (f.rule == rule);
  return n;
}

// --- engine -----------------------------------------------------------

TEST(LintEngine, BlankerHidesCommentsAndStrings) {
  const fs::path p =
      kTestdata / "clean/determinism/src/protocol/jitter.cpp";
  const SourceFile f = LoadSourceFile(p, "src/protocol/jitter.cpp");
  // Raw mentions std::rand in a comment and a string; code must not.
  EXPECT_NE(f.raw.find("std::rand"), std::string::npos);
  EXPECT_EQ(FindToken(f.code, "std::rand"), std::string::npos);
  EXPECT_EQ(FindToken(f.code, "time("), std::string::npos);
  // The digit separator in 120'000 must not open a char literal and
  // swallow the identifier after it.
  EXPECT_NE(FindToken(f.code, "kBudget"), std::string::npos);
}

TEST(LintEngine, TokenBoundaries) {
  EXPECT_TRUE(TokenAt("x = rand();", 4, "rand"));
  EXPECT_FALSE(TokenAt("x = srand();", 5, "rand"));   // prefix glued
  EXPECT_FALSE(TokenAt("x = rands();", 4, "rand"));   // suffix glued
  EXPECT_EQ(FindToken("resend(send(", "send("), 7u);  // skips resend(
}

TEST(LintEngine, IncludeExtraction) {
  const fs::path p =
      kTestdata / "violations/layering-order/src/util/clock.h";
  const SourceFile f = LoadSourceFile(p, "src/util/clock.h");
  ASSERT_EQ(f.includes.size(), 3u);
  EXPECT_EQ(f.includes[0], "net/transport.h");
  EXPECT_EQ(f.includes[1], "protocol/party.h");
  EXPECT_EQ(f.includes[2], "util/error.h");
  EXPECT_TRUE(f.is_header);
}

TEST(LintEngine, SuppressionSameLineAndLineAbove) {
  const fs::path p =
      kTestdata / "clean/fd-cloexec/src/net/listener.cpp";
  const SourceFile f = LoadSourceFile(p, "src/net/listener.cpp");
  // The fixture carries exactly one allow(fd-cloexec); find its line.
  int allow_line = 0;
  for (size_t i = 0; i < f.raw_lines.size(); ++i) {
    if (f.raw_lines[i].find("pem-lint: allow(fd-cloexec)") !=
        std::string::npos) {
      allow_line = static_cast<int>(i + 1);
    }
  }
  ASSERT_GT(allow_line, 0);
  EXPECT_TRUE(f.Suppressed("fd-cloexec", allow_line));      // same line
  EXPECT_TRUE(f.Suppressed("fd-cloexec", allow_line + 1));  // line below
  EXPECT_FALSE(f.Suppressed("fd-cloexec", allow_line + 2));
  EXPECT_FALSE(f.Suppressed("determinism", allow_line));  // other rule
}

TEST(LintEngine, RegistryFindsEveryAdvertisedRule) {
  const Registry registry = MakeDefaultRegistry();
  EXPECT_EQ(registry.rules().size(), 9u);
  for (const char* id :
       {"determinism", "layering-order", "layering-backend-include",
        "raw-syscall", "fd-cloexec", "frame-accounting", "pragma-once",
        "using-namespace", "no-cout"}) {
    EXPECT_NE(registry.Find(id), nullptr) << id;
  }
  EXPECT_EQ(registry.Find("no-such-rule"), nullptr);
}

// --- fixture corpus ---------------------------------------------------

struct RuleExpectation {
  const char* rule;
  int min_violations;  // the violating fixture fires at least this many
};

// Without a printer gtest dumps the struct's raw bytes -- a string-literal
// address and padding -- into the listed test name, so ctest's discovered
// name would change with every build and every run.
void PrintTo(const RuleExpectation& e, std::ostream* os) {
  *os << e.rule << " (min " << e.min_violations << ")";
}

class LintRuleFixtures : public ::testing::TestWithParam<RuleExpectation> {};

TEST_P(LintRuleFixtures, ViolatingFixtureFires) {
  const RuleExpectation e = GetParam();
  const std::vector<Finding> findings = LintFixture("violations", e.rule);
  EXPECT_GE(CountRule(findings, e.rule), e.min_violations);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, e.rule);
    EXPECT_GE(f.line, 1);
    EXPECT_FALSE(f.message.empty());
  }
}

TEST_P(LintRuleFixtures, CleanFixtureStaysSilent) {
  const RuleExpectation e = GetParam();
  std::ostringstream listing;
  const std::vector<Finding> findings = LintFixture("clean", e.rule);
  for (const Finding& f : findings) {
    listing << f.file << ":" << f.line << ": " << f.rule << ": " << f.message
            << "\n";
  }
  EXPECT_EQ(findings.size(), 0u) << listing.str();
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintRuleFixtures,
    ::testing::Values(RuleExpectation{"determinism", 5},
                      RuleExpectation{"layering-order", 2},
                      RuleExpectation{"layering-backend-include", 2},
                      RuleExpectation{"raw-syscall", 3},
                      RuleExpectation{"fd-cloexec", 5},
                      RuleExpectation{"frame-accounting", 1},
                      RuleExpectation{"pragma-once", 1},
                      RuleExpectation{"using-namespace", 1},
                      RuleExpectation{"no-cout", 1}),
    [](const ::testing::TestParamInfo<RuleExpectation>& info) {
      std::string name = info.param.rule;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Clean fixtures must be clean under EVERY rule, not just their own —
// otherwise the corpus teaches rules to contradict each other.
TEST(LintFixtureCorpus, CleanTreesPassAllRules) {
  const Registry registry = MakeDefaultRegistry();
  for (const auto& entry : fs::directory_iterator(kTestdata / "clean")) {
    const std::vector<Finding> findings =
        RunLint(entry.path(), WalkTree(entry.path()), registry, {}, {});
    std::ostringstream listing;
    for (const Finding& f : findings) {
      listing << f.file << ":" << f.line << ": " << f.rule << "\n";
    }
    EXPECT_EQ(findings.size(), 0u)
        << entry.path().filename() << ":\n"
        << listing.str();
  }
}

// --- self-run ---------------------------------------------------------

TEST(LintSelfRun, ShippedTreeIsClean) {
  const Registry registry = MakeDefaultRegistry();
  const std::vector<std::string> files = WalkTree(kSourceRoot);
  // A broken root (wrong PEM_SOURCE_ROOT) would pass vacuously.
  ASSERT_GT(files.size(), 40u);
  const std::vector<Finding> findings =
      RunLint(kSourceRoot, files, registry, {}, {});
  std::ostringstream listing;
  for (const Finding& f : findings) {
    listing << f.file << ":" << f.line << ": " << f.rule << ": " << f.message
            << "\n";
  }
  EXPECT_EQ(findings.size(), 0u) << listing.str();
}

// The acceptance bar: determinism and backend-include hold over the
// transcript layers with ZERO suppressions — not one escape hatch.
TEST(LintSelfRun, TranscriptLayersCarryNoSuppressions) {
  for (const char* dir : {"src/protocol", "src/crypto"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(kSourceRoot / dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path());
      std::ostringstream buf;
      buf << in.rdbuf();
      EXPECT_EQ(buf.str().find("pem-lint: allow("), std::string::npos)
          << entry.path();
    }
  }
}

}  // namespace
}  // namespace pem::lint
