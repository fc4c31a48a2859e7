// Tests for the in-tree invariant linter (tools/lint).
//
// Three layers of assurance:
//   1. unit tests drive the lexer and rule engine directly on inline
//      sources (stripping, suppression targeting, each rule in isolation);
//   2. the fixture tree under tests/lint_fixtures/ — a miniature repo with
//      one planted violation per rule, plus a suppressed site and a stale
//      suppression — must produce exactly the expected diagnostics, and
//      each planted file must fail the real ldlb_lint binary on its own;
//   3. the real tree must lint clean, so the gate cannot silently rot.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "lint_core.hpp"

namespace ldlb::lint {
namespace {

std::vector<Diagnostic> lint_core_snippet(const std::string& rel_path,
                                          const std::string& source) {
  return lint_file(rel_path, source);
}

// Runs a command, returning {exit code, stdout}. The linter only writes
// diagnostics to stdout, so 2>/dev/null keeps the summary line out.
std::pair<int, std::string> run(const std::string& command) {
  FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  std::string output;
  char buffer[4096];
  while (pipe != nullptr && fgets(buffer, sizeof buffer, pipe) != nullptr) {
    output += buffer;
  }
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST(LintLexer, StripsCommentsAndLiteralsPreservingLines) {
  const Stripped s = strip_source(
      "int a; // std::rand() in a comment\n"
      "const char* p = \"std::rand()\";\n"
      "/* std::rand()\n   spanning lines */ int b;\n"
      "char c = '\\'';\n"
      "int big = 1'000'000;\n");
  EXPECT_EQ(s.text.find("rand"), std::string::npos);
  EXPECT_EQ(std::count(s.text.begin(), s.text.end(), '\n'), 6);
  EXPECT_NE(s.text.find("int b;"), std::string::npos);
  EXPECT_NE(s.text.find("1'000'000"), std::string::npos);
  ASSERT_EQ(s.comments.size(), 2u);
  EXPECT_TRUE(s.comments[0].code_before);
  EXPECT_EQ(s.comments[1].line, 3);
}

TEST(LintLexer, StripsRawStrings) {
  const Stripped s = strip_source(
      "const char* q = R\"(std::mutex m; \"quote\")\";\n"
      "std::rand();\n");
  EXPECT_EQ(s.text.find("mutex"), std::string::npos);
  EXPECT_NE(s.text.find("std::rand"), std::string::npos);
}

TEST(LintRules, CommentedTokenDoesNotTrigger) {
  EXPECT_TRUE(lint_core_snippet("src/ldlb/core/x.cpp",
                                "// std::rand() only in prose\nint x;\n")
                  .empty());
}

TEST(LintRules, ScopeConfinesNondeterminismToProofLayers) {
  const std::string source = "int f() { return std::rand(); }\n";
  EXPECT_EQ(lint_core_snippet("src/ldlb/core/x.cpp", source).size(), 1u);
  // fault/ is outside the proof layers, so rand() is not flagged there.
  EXPECT_TRUE(lint_core_snippet("src/ldlb/fault/x.cpp", source).empty());
}

TEST(LintRules, AtomicFileIsExemptFromRawFileWrite) {
  const std::string source = "int fd = ::open(p, O_WRONLY | O_CREAT);\n";
  EXPECT_TRUE(
      lint_core_snippet("src/ldlb/util/atomic_file.cpp", source).empty());
  EXPECT_EQ(lint_core_snippet("src/ldlb/recover/x.cpp", source).size(), 1u);
}

TEST(LintRules, LockGuardTemplateArgumentIsNotADeclaration) {
  // The mutex *declaration* is the annotated site; each guard that names
  // the type as a template argument must not demand its own annotation.
  EXPECT_TRUE(lint_core_snippet("src/ldlb/core/x.cpp",
                                "std::lock_guard<std::mutex> lk(m);\n")
                  .empty());
  EXPECT_EQ(lint_core_snippet("src/ldlb/core/x.cpp", "std::mutex m;\n").size(),
            1u);
}

TEST(LintRules, TrailingAnnotationSuppressesSameLine) {
  const auto diags = lint_core_snippet(
      "src/ldlb/core/x.cpp",
      "std::mutex m;  // ldlb-lint: allow(raw-sync): fixture reason\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintRules, AnnotationWithoutReasonIsRejected) {
  const auto diags = lint_core_snippet(
      "src/ldlb/core/x.cpp", "std::mutex m;  // ldlb-lint: allow(raw-sync)\n");
  ASSERT_EQ(diags.size(), 2u);  // bad-annotation + the unsuppressed raw-sync
  EXPECT_EQ(diags[0].rule, "bad-annotation");
  EXPECT_EQ(diags[1].rule, "raw-sync");
}

TEST(LintRules, UnknownRuleNameIsRejected) {
  const auto diags = lint_core_snippet(
      "src/ldlb/core/x.cpp",
      "int x;  // ldlb-lint: allow(no-such-rule): why\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unknown-rule");
}

TEST(LintRules, IpcIsExemptFromRawProcess) {
  const std::string source = "pid_t pid = ::fork();\n";
  EXPECT_TRUE(lint_core_snippet("src/ldlb/util/ipc.cpp", source).empty());
  EXPECT_EQ(lint_core_snippet("src/ldlb/fault/x.cpp", source).size(), 1u);
  // Wrapper names containing the tokens are not raw calls.
  EXPECT_TRUE(lint_core_snippet("src/ldlb/fault/x.cpp",
                                "ipc::kill_process(pid);\n"
                                "auto k = ipc::wait_exit(pid, 1.0);\n")
                  .empty());
}

TEST(LintRules, RawSocketIsRejectedEverywhere) {
  const std::string source = "int fd = socket(AF_INET, SOCK_STREAM, 0);\n";
  // No module is exempt: the library opens no sockets at all.
  EXPECT_EQ(lint_core_snippet("src/ldlb/util/net.cpp", source).size(), 1u);
  EXPECT_EQ(lint_core_snippet("src/ldlb/util/ipc.cpp", source).size(), 1u);
  EXPECT_EQ(lint_core_snippet("src/ldlb/fault/x.cpp", source).size(), 1u);
  // Wrapper names containing the tokens are not raw calls, and the project
  // method FaultPlan::bind() is not the bind(2) syscall — only a
  // ::-qualified bind counts.
  EXPECT_TRUE(lint_core_snippet("src/ldlb/fault/x.cpp",
                                "auto c = net::connect_channel(h, p);\n"
                                "plan.on_connect(h, p);\n"
                                "void FaultPlan::bind(const Multigraph& g);\n")
                  .empty());
  EXPECT_EQ(lint_core_snippet("src/ldlb/fault/x.cpp",
                              "  ::bind(fd, addr, len);\n")
                .size(),
            1u);
}

TEST(LintRules, LogModulesAreExemptFromRawLogWrite) {
  const std::string source = "append_file_durable(path, record);\n";
  EXPECT_TRUE(
      lint_core_snippet("src/ldlb/recover/cert_log.cpp", source).empty());
  EXPECT_TRUE(
      lint_core_snippet("src/ldlb/util/atomic_file.cpp", source).empty());
  EXPECT_EQ(lint_core_snippet("src/ldlb/fault/x.cpp", source).size(), 1u);
  // The project method CertificateLog::truncate-like helpers are wrappers;
  // only the ::-qualified truncate(2) syscall counts.
  EXPECT_TRUE(lint_core_snippet("src/ldlb/fault/x.cpp",
                                "log.truncate(size);\n")
                  .empty());
  EXPECT_EQ(lint_core_snippet("src/ldlb/fault/x.cpp",
                              "  ::truncate(path, size);\n")
                .size(),
            1u);
}

TEST(LintRules, SwitchWithoutDefaultIsExhaustivenessClean) {
  EXPECT_TRUE(lint_core_snippet("src/ldlb/fault/x.cpp",
                                "switch (s) {\n"
                                "  case RunStatus::kOk: return 1;\n"
                                "  case RunStatus::kFailed: return 2;\n"
                                "}\n")
                  .empty());
}

TEST(LintRules, DefaultedFunctionIsNotADefaultLabel) {
  EXPECT_TRUE(lint_core_snippet("src/ldlb/fault/x.cpp",
                                "switch (s) { case RunStatus::kOk: break; }\n"
                                "struct S { S() = default; };\n")
                  .empty());
}

TEST(LintFixtures, ExactDiagnosticsFromPlantedTree) {
  const auto diags = lint_tree(LDLB_FIXTURE_ROOT);
  std::vector<std::string> got;
  for (const auto& d : diags) {
    got.push_back(d.path + ":" + std::to_string(d.line) + ":" + d.rule);
  }
  const std::vector<std::string> expected = {
      "src/ldlb/core/nondet.cpp:6:nondeterminism",
      "src/ldlb/core/raw_write.cpp:9:raw-file-write",
      "src/ldlb/cover/raw_socket.cpp:6:raw-socket",
      "src/ldlb/fault/raw_process.cpp:6:raw-process",
      "src/ldlb/fault/switch_default.cpp:11:switch-default-on-enum",
      "src/ldlb/matching/catch_all.cpp:7:catch-all",
      "src/ldlb/order/stale.cpp:4:stale-suppression",
      "src/ldlb/recover/log_write.cpp:7:raw-log-write",
      "src/ldlb/view/raw_sync.cpp:6:raw-sync",
  };
  EXPECT_EQ(got, expected);
}

TEST(LintFixtures, SuppressedFixtureIsClean) {
  EXPECT_TRUE(lint_files(LDLB_FIXTURE_ROOT,
                         {"src/ldlb/graph/suppressed.cpp"})
                  .empty());
}

TEST(LintFixtures, StaleSuppressionNamesItsTargetLine) {
  const auto diags =
      lint_files(LDLB_FIXTURE_ROOT, {"src/ldlb/order/stale.cpp"});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(format(diags[0]),
            "src/ldlb/order/stale.cpp:4: [stale-suppression] "
            "allow(raw-file-write) suppresses nothing on line 5; remove the "
            "stale annotation");
}

TEST(LintBinary, FailsOnEachPlantedFixtureAlone) {
  const std::vector<std::string> planted = {
      "src/ldlb/core/raw_write.cpp",    "src/ldlb/core/nondet.cpp",
      "src/ldlb/view/raw_sync.cpp",     "src/ldlb/matching/catch_all.cpp",
      "src/ldlb/fault/switch_default.cpp", "src/ldlb/order/stale.cpp",
      "src/ldlb/fault/raw_process.cpp",    "src/ldlb/cover/raw_socket.cpp",
      "src/ldlb/recover/log_write.cpp",
  };
  for (const std::string& file : planted) {
    const auto [code, output] =
        run(std::string(LDLB_LINT_BIN) + " --root " + LDLB_FIXTURE_ROOT + " " +
            file);
    EXPECT_EQ(code, 1) << file << "\n" << output;
    EXPECT_NE(output.find(file), std::string::npos) << output;
  }
}

TEST(LintBinary, FixtureTreeFailsRealTreePasses) {
  const auto fixture =
      run(std::string(LDLB_LINT_BIN) + " --root " + LDLB_FIXTURE_ROOT);
  EXPECT_EQ(fixture.first, 1);
  EXPECT_EQ(std::count(fixture.second.begin(), fixture.second.end(), '\n'), 9)
      << fixture.second;

  const auto real = run(std::string(LDLB_LINT_BIN) + " --root " +
                        LDLB_REPO_ROOT);
  EXPECT_EQ(real.first, 0) << "the real tree must lint clean:\n"
                           << real.second;
  EXPECT_TRUE(real.second.empty()) << real.second;
}

TEST(LintRealTree, LintsCleanViaLibrary) {
  const auto diags = lint_tree(LDLB_REPO_ROOT);
  std::string joined;
  for (const auto& d : diags) joined += format(d) + "\n";
  EXPECT_TRUE(diags.empty()) << joined;
}

}  // namespace
}  // namespace ldlb::lint
