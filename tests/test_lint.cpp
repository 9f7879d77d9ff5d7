// Self-tests for eagle-lint: every rule must fire on its seeded fixture
// (tests/lint_fixtures/) with the right id and line, suppressions must
// silence findings, and the real tree must lint clean.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lint/lexer.h"
#include "tools/lint/linter.h"

namespace eagle::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path =
      std::string(EAGLE_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::set<std::string> RuleIds(const std::vector<Diagnostic>& diags) {
  std::set<std::string> ids;
  for (const Diagnostic& d : diags) ids.insert(d.rule);
  return ids;
}

std::set<int> Lines(const std::vector<Diagnostic>& diags) {
  std::set<int> lines;
  for (const Diagnostic& d : diags) lines.insert(d.line);
  return lines;
}

TEST(LintRules, CatalogueIsWellFormed) {
  const auto& rules = Rules();
  ASSERT_FALSE(rules.empty());
  std::set<std::string> ids;
  for (const RuleInfo& rule : rules) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule " << rule.id;
    EXPECT_EQ(rule.severity, "error");
    EXPECT_FALSE(rule.summary.empty());
  }
  EXPECT_EQ(ids, (std::set<std::string>{"ND01", "ND02", "CC01", "DC01",
                                        "CP01", "HS01", "WC01", "HP01",
                                        "IN01", "LY01", "ST01", "LK01",
                                        "HP02"}));
}

TEST(LintRules, NondeterminismFixtureFires) {
  const std::string src = ReadFixture("nondeterminism.cpp");
  const auto diags = LintSource("src/core/fixture.cpp", src);
  EXPECT_EQ(RuleIds(diags), std::set<std::string>{"ND01"});
  // random_device, rand(), time(), getenv() — and nothing for the plain
  // `time` field at the bottom of the fixture.
  EXPECT_EQ(Lines(diags), (std::set<int>{7, 12, 16, 20}));
}

TEST(LintRules, NondeterminismAllowlistExempts) {
  const std::string src = ReadFixture("nondeterminism.cpp");
  EXPECT_TRUE(LintSource("src/support/thread_pool.cpp", src).empty());
}

TEST(LintRules, UnorderedIterationFixtureFires) {
  const std::string src = ReadFixture("unordered_iter.cpp");
  const auto diags = LintSource("src/core/fixture.cpp", src);
  EXPECT_EQ(RuleIds(diags), std::set<std::string>{"ND02"});
  // The range-for and the .begin() walk; the point lookup is fine.
  EXPECT_EQ(Lines(diags), (std::set<int>{10, 18}));
}

TEST(LintRules, UnorderedIterationScopedToOrderedLayers) {
  const std::string src = ReadFixture("unordered_iter.cpp");
  // Outside src/core, src/rl, src/sim the rule does not apply.
  EXPECT_TRUE(LintSource("bench/fixture.cpp", src).empty());
}

TEST(LintRules, UnorderedIterationSeesCompanionHeader) {
  // Member declared in the header, iterated in the .cpp — the companion
  // header parameter is what makes this visible (a class that declares
  // its table in the header and walks it in the .cpp).
  const std::string header =
      "#pragma once\n#include <unordered_map>\n"
      "struct S { std::unordered_map<int, int> table; };\n";
  const std::string source =
      "int Sum(const S& s) {\n"
      "  int total = 0;\n"
      "  for (const auto& [k, v] : s.table) total += v;\n"
      "  return total;\n"
      "}\n";
  const auto diags = LintSource("src/core/fixture.cpp", source, header);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "ND02");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintRules, ConcurrencyFixtureFires) {
  const std::string src = ReadFixture("concurrency.cpp");
  const auto diags = LintSource("src/rl/fixture.cpp", src);
  EXPECT_EQ(RuleIds(diags), std::set<std::string>{"CC01"});
  // Two headers, the mutex, the atomic, and the lock_guard line.
  EXPECT_GE(diags.size(), 5u);
}

TEST(LintRules, ConcurrencyAllowedInSanctionedLayers) {
  const std::string src = ReadFixture("concurrency.cpp");
  EXPECT_TRUE(LintSource("src/support/fixture.cpp", src).empty());
  EXPECT_TRUE(LintSource("src/core/eval_service.cpp", src).empty());
}

TEST(LintRules, DcheckSideEffectFixtureFires) {
  const std::string src = ReadFixture("dcheck_side_effect.cpp");
  const auto diags = LintSource("src/core/fixture.cpp", src);
  EXPECT_EQ(RuleIds(diags), std::set<std::string>{"DC01"});
  // ++, assignment, mutating member call; the pure read stays clean.
  EXPECT_EQ(Lines(diags), (std::set<int>{9, 11, 16}));
}

TEST(LintRules, CheckpointMagicFixtureFires) {
  const std::string src = ReadFixture("checkpoint_magic.cpp");
  const auto diags = LintSource("src/rl/fixture.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "CP01");
  EXPECT_EQ(diags[0].line, 8);
}

TEST(LintRules, CheckpointMagicCleanWithVersionReference) {
  const std::string src = ReadFixture("checkpoint_magic.cpp") +
                          "constexpr int kVersionDigit = "
                          "kCheckpointFormatVersion;\n";
  EXPECT_TRUE(LintSource("src/rl/fixture.cpp", src).empty());
}

TEST(LintRules, MissingPragmaOnceFires) {
  const std::string src = ReadFixture("missing_pragma_once.h");
  const auto diags = LintSource("src/core/fixture.h", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "HS01");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(LintRules, PragmaOnceOnlyAppliesToHeaders) {
  const std::string src = ReadFixture("missing_pragma_once.h");
  EXPECT_TRUE(LintSource("src/core/fixture.cpp", src).empty());
}

TEST(LintRules, WallClockFixtureFires) {
  const std::string src = ReadFixture("wall_clock.cpp");
  const auto diags = LintSource("src/rl/fixture.cpp", src);
  EXPECT_EQ(RuleIds(diags), std::set<std::string>{"WC01"});
  // Only the standalone Stopwatch declaration; the member accesses and
  // comment mentions at the bottom of the fixture stay clean.
  EXPECT_EQ(Lines(diags), (std::set<int>{9}));
}

TEST(LintRules, WallClockConfinedToSupportAndSinks) {
  const std::string src = ReadFixture("wall_clock.cpp");
  // src/support owns the clock; bench/ and tools/ are telemetry sinks
  // outside the rule's scope.
  EXPECT_TRUE(LintSource("src/support/metrics.cpp", src).empty());
  EXPECT_TRUE(LintSource("bench/fixture.cpp", src).empty());
  EXPECT_TRUE(LintSource("tools/fixture.cpp", src).empty());
}

TEST(LintRules, HotPathAllocFixtureFires) {
  const std::string src = ReadFixture("hot_path_alloc.cpp");
  const auto diags = LintSource("src/nn/fixture.cpp", src);
  EXPECT_EQ(RuleIds(diags), std::set<std::string>{"HP01"});
  // The <unordered_map> include, raw new, std::malloc, std::free, and the
  // hash-map declaration; the vector scratch and the pool's member `free`
  // stay clean.
  EXPECT_EQ(Lines(diags), (std::set<int>{5, 9, 10, 11, 15}));
}

TEST(LintRules, HotPathAllocScopedToKernelsAndExemptsPools) {
  const std::string src = ReadFixture("hot_path_alloc.cpp");
  EXPECT_EQ(RuleIds(LintSource("src/sim/simulator.cpp", src)),
            std::set<std::string>{"HP01"});
  // Every NN kernel file carries the same no-allocation contract.
  EXPECT_EQ(RuleIds(LintSource("src/nn/tape.cpp", src)),
            std::set<std::string>{"HP01"});
  // The pools themselves are the sanctioned allocation layer.
  EXPECT_TRUE(LintSource("src/nn/arena.cpp", src).empty());
  EXPECT_TRUE(LintSource("src/sim/sim_workspace.cpp", src).empty());
  // Outside the kernel files the rule does not apply at all.
  EXPECT_TRUE(LintSource("src/rl/fixture.cpp", src).empty());
}

TEST(LintRules, RawNumericParseFixtureFires) {
  const std::string src = ReadFixture("raw_numeric_parse.cpp");
  const auto diags = LintSource("src/graph/ingest.cpp", src);
  EXPECT_EQ(RuleIds(diags), std::set<std::string>{"IN01"});
  // std::stoll, strtod and sscanf calls; the member access and the
  // variable named stod stay clean.
  EXPECT_EQ(Lines(diags), (std::set<int>{7, 11, 15}));
}

TEST(LintRules, RawNumericParseScopedToGraphLayer) {
  const std::string src = ReadFixture("raw_numeric_parse.cpp");
  // parse_num.* is the sanctioned conversion layer; src/support parses
  // trusted input (args, telemetry JSON) and is out of scope entirely.
  EXPECT_TRUE(LintSource("src/graph/parse_num.cpp", src).empty());
  EXPECT_TRUE(LintSource("src/support/json.cpp", src).empty());
  EXPECT_TRUE(LintSource("tools/fixture.cpp", src).empty());
  // The cluster-spec importer parses the same class of untrusted files
  // as src/graph and is in scope; the rest of src/sim is not.
  EXPECT_EQ(RuleIds(LintSource("src/sim/cluster_ingest.cpp", src)),
            std::set<std::string>{"IN01"});
  EXPECT_TRUE(LintSource("src/sim/cluster.cpp", src).empty());
}

TEST(LintRules, SuppressionsSilenceFindings) {
  const std::string src = ReadFixture("suppressed.cpp");
  const auto diags = LintSource("src/core/fixture.cpp", src);
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags[0]);
  // The same file without its suppression comments does flag: strip them
  // to prove the comments are what silences the findings.
  std::string stripped = src;
  std::string::size_type at;
  while ((at = stripped.find("// eagle-lint:")) != std::string::npos) {
    stripped.erase(at, stripped.find('\n', at) - at);
  }
  EXPECT_FALSE(LintSource("src/core/fixture.cpp", stripped).empty());
}

TEST(LintRules, FormatDiagnosticIsFileLineParsable) {
  const std::string src = ReadFixture("nondeterminism.cpp");
  const auto diags = LintSource("src/core/fixture.cpp", src);
  ASSERT_FALSE(diags.empty());
  const std::string line = FormatDiagnostic(diags[0]);
  EXPECT_EQ(line.rfind("src/core/fixture.cpp:7: error: [ND01]", 0), 0u)
      << line;
}

// --- Cross-file (two-phase) rules --------------------------------------

TEST(CrossFileRules, LayeringBackEdgeFires) {
  Analyzer analyzer;
  analyzer.AddFile("src/sim/engine.h", ReadFixture("layering_engine.h"));
  analyzer.AddFile("src/support/low.h", ReadFixture("layering_low.h"));
  const TreeResult result = analyzer.Run();
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "LY01");
  EXPECT_EQ(result.diagnostics[0].file, "src/support/low.h");
  EXPECT_EQ(result.diagnostics[0].line, 5);
  EXPECT_EQ(result.suppressed, 0);
}

TEST(CrossFileRules, LayeringSuppressionSilencesBackEdge) {
  Analyzer analyzer;
  analyzer.AddFile("src/sim/engine.h", ReadFixture("layering_engine.h"));
  analyzer.AddFile("src/support/low.h",
                   ReadFixture("layering_low_suppressed.h"));
  const TreeResult result = analyzer.Run();
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressed, 1);
}

TEST(CrossFileRules, IncludeCycleDiagnosed) {
  // Same-layer cycle: no back-edge, but the DFS must still flag it.
  Analyzer analyzer;
  analyzer.AddFile("src/sim/a.h", "#pragma once\n#include \"sim/b.h\"\n");
  analyzer.AddFile("src/sim/b.h", "#pragma once\n#include \"sim/a.h\"\n");
  const TreeResult result = analyzer.Run();
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "LY01");
  EXPECT_NE(result.diagnostics[0].message.find("include cycle"),
            std::string::npos)
      << result.diagnostics[0].message;
}

TEST(CrossFileRules, DiscardedStatusFires) {
  Analyzer analyzer;
  analyzer.AddFile("src/graph/api.h", ReadFixture("discarded_status_api.h"));
  analyzer.AddFile("src/graph/use.cpp",
                   ReadFixture("discarded_status_use.cpp"));
  const TreeResult result = analyzer.Run();
  EXPECT_EQ(RuleIds(result.diagnostics), std::set<std::string>{"ST01"});
  // Plain discard, discard inside the if-body, and the unjustified
  // (void) cast; the consumed call and the suppressed cast stay clean.
  EXPECT_EQ(Lines(result.diagnostics), (std::set<int>{8, 11, 16}));
  EXPECT_EQ(result.suppressed, 1);
}

TEST(CrossFileRules, LockOrderInversionFiresAtBothSites) {
  Analyzer analyzer;
  analyzer.AddFile("src/support/lock_order_first.cpp",
                   ReadFixture("lock_order_first.cpp"));
  analyzer.AddFile("src/support/lock_order_second.cpp",
                   ReadFixture("lock_order_second.cpp"));
  const TreeResult result = analyzer.Run();
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(RuleIds(result.diagnostics), std::set<std::string>{"LK01"});
  EXPECT_EQ(result.diagnostics[0].file, "src/support/lock_order_first.cpp");
  EXPECT_EQ(result.diagnostics[0].line, 15);
  EXPECT_EQ(result.diagnostics[1].file, "src/support/lock_order_second.cpp");
  EXPECT_EQ(result.diagnostics[1].line, 13);
}

TEST(CrossFileRules, LockOrderConsistentOrderIsClean) {
  Analyzer analyzer;
  analyzer.AddFile("src/support/lock_order_first.cpp",
                   ReadFixture("lock_order_first.cpp"));
  const TreeResult result = analyzer.Run();
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(CrossFileRules, LockOrderSuppressionSilencesOneSite) {
  Analyzer analyzer;
  analyzer.AddFile("src/support/lock_order_first.cpp",
                   ReadFixture("lock_order_first.cpp"));
  analyzer.AddFile("src/support/lock_order_second.cpp",
                   ReadFixture("lock_order_second_suppressed.cpp"));
  const TreeResult result = analyzer.Run();
  // The waived site goes quiet; its counterpart still points at the pair.
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].file, "src/support/lock_order_first.cpp");
  EXPECT_EQ(result.suppressed, 1);
}

TEST(CrossFileRules, HotPathEscapeFires) {
  Analyzer analyzer;
  analyzer.AddFile("src/graph/alloc_helper.h",
                   ReadFixture("hot_path_escape_helper.h"));
  analyzer.AddFile("src/nn/kernel_fixture.cpp",
                   ReadFixture("hot_path_escape_kernel.cpp"));
  const TreeResult result = analyzer.Run();
  EXPECT_EQ(RuleIds(result.diagnostics), std::set<std::string>{"HP02"});
  // Line 10: Step's definition (transitive escape through GrabBuffer).
  // Line 16: the direct make_unique, invisible to textual HP01.
  EXPECT_EQ(Lines(result.diagnostics), (std::set<int>{10, 16}));
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.file, "src/nn/kernel_fixture.cpp");
  }
}

TEST(CrossFileRules, HotPathEscapeNamesTheChain) {
  Analyzer analyzer;
  analyzer.AddFile("src/graph/alloc_helper.h",
                   ReadFixture("hot_path_escape_helper.h"));
  analyzer.AddFile("src/nn/kernel_fixture.cpp",
                   ReadFixture("hot_path_escape_kernel.cpp"));
  const TreeResult result = analyzer.Run();
  bool saw_chain = false;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.message.find("GrabBuffer") != std::string::npos &&
        d.message.find("src/graph/alloc_helper.h:6") != std::string::npos) {
      saw_chain = true;
    }
  }
  EXPECT_TRUE(saw_chain) << "transitive diagnostic must name the sink";
}

TEST(CrossFileRules, HotPathEscapeSuppressionSilences) {
  Analyzer analyzer;
  analyzer.AddFile("src/graph/alloc_helper.h",
                   ReadFixture("hot_path_escape_helper.h"));
  analyzer.AddFile("src/nn/kernel_fixture.cpp",
                   ReadFixture("hot_path_escape_kernel_suppressed.cpp"));
  const TreeResult result = analyzer.Run();
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressed, 2);
}

// --- Lexer regressions -------------------------------------------------

TEST(LexerRegression, RawStringContentsDoNotLeakTokens) {
  // Encoding-prefixed raw strings (u8R, LR, uR, UR) once leaked their
  // contents as real tokens; every literal in the fixture would then
  // trip ND01 or CC01 under a scoped path.
  const std::string src = ReadFixture("lexer_literals.cpp");
  EXPECT_TRUE(LintSource("src/rl/fixture.cpp", src).empty());
  const LexedFile lexed = Lex(src);
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "mutex") << "raw string leaked at line " << t.line;
    EXPECT_NE(t.text, "rand") << "raw string leaked at line " << t.line;
    EXPECT_NE(t.text, "time") << "raw string leaked at line " << t.line;
    EXPECT_NE(t.text, "srand") << "raw string leaked at line " << t.line;
  }
}

TEST(LexerRegression, DigitSeparatorsStayOneToken) {
  const LexedFile lexed = Lex("int x = f(1'000'000, 'm');\n");
  bool saw_number = false;
  bool saw_char = false;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kNumber && t.text == "1'000'000") {
      saw_number = true;
    }
    if (t.kind == TokKind::kChar && t.text == "m") saw_char = true;
  }
  // A greedy separator scan would swallow ", '" and mangle both tokens.
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_char);
}

TEST(LexerRegression, RawStringInsidePpDirective) {
  const LexedFile lexed =
      Lex("#define SCHEMA R\"({\"a\"://})\"\nint after = 1;\n");
  // The raw string's // must not start a comment that eats the line, and
  // the code after the directive must still lex.
  bool saw_after = false;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kIdentifier && t.text == "after") {
      saw_after = true;
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(LintTreeTest, RealTreeIsClean) {
  const TreeResult result = LintTree(EAGLE_SOURCE_DIR);
  EXPECT_GT(result.files_scanned, 100);
  for (const Diagnostic& d : result.diagnostics) {
    ADD_FAILURE() << FormatDiagnostic(d);
  }
  // The tree carries at least one justified waiver (the one-time
  // parameter-store construction in src/nn/layers.cpp).
  EXPECT_GE(result.suppressed, 1);
}

}  // namespace
}  // namespace eagle::lint
