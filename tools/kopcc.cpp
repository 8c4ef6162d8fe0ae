// kopcc: the CARAT KOP compiler driver as a command-line tool — the
// stand-in for the paper's "script that wraps the underlying clang
// compiler" (§3.3). Compiles textual KIR modules into signed .kko
// containers, and inspects/validates existing containers.
//
//   kopcc compile <in.kir> -o <out.kko> [--no-guards] [--simplify]
//         [--wrap-priv] [--coalesce] [--dominate] [--elide|--no-elide]
//         [--key-id <id> --key-secret <secret>]
//   kopcc inspect <in.kko>          # header, attestation, disassembly
//         [--sites]                 # guard-site table, annotated with
//                                   # each cover's elision proof
//         [--bytecode]              # register-VM bytecode listing plus
//                                   # the elision provenance table and
//                                   # the attested CFI target-set table
//   kopcc verify <in.kko>           # run the insmod-time validator
//   kopcc check <in.kir|in.kko> [--json] [--as-shipped] [compile options]
//                                   # --as-shipped analyzes .kir source
//                                   # exactly as written (no guard/CFI
//                                   # injection) — for adversarial
//                                   # inputs the compiler would repair
//                                   # run the static analyses (guard
//                                   # coverage, provenance, privileged
//                                   # lint, cfi); .kir inputs are
//                                   # compiled first, .kko inputs
//                                   # analyzed as shipped; exit 1 on any
//                                   # error. --json adds the per-icall
//                                   # CFI annotation block (set id,
//                                   # target count, gate vs intra)
//   kopcc check --corpus [--json]   # self-check: every good corpus
//                                   # module must prove clean, every
//                                   # adversarial module must be rejected
//   kopcc run <in.kko> [--engine=interp|bytecode] [--entry=fn]
//         [--cpus=N] [args...]
//                                   # insmod into a simulated kernel
//                                   # (default-allow policy) and call an
//                                   # entry point; --cpus=N calls it
//                                   # concurrently from N simulated CPUs
//                                   # on per-CPU execution contexts
//   kopcc faultcamp [--seed N] [--trials N] [--json]
//         [--engine=interp|bytecode] [--recovery=quarantine|restart]
//                                   # deterministic fault-injection
//                                   # campaign against the resilience
//                                   # layer; exit 1 on any kernel
//                                   # invariant violation
//   kopcc forge [--seed N] [--trials N] [--jobs N] [--json]
//         [--policy=hardened|weak] [--no-minimize]
//         [--engine=interp|bytecode] [--recovery=quarantine|restart]
//         [--replay <token>]
//                                   # coverage-guided adversarial
//                                   # campaign: analysis-directed
//                                   # fuzzing of the forge target across
//                                   # N worker CPUs, crash minimization,
//                                   # and verified policy suggestions;
//                                   # report is byte-identical for any
//                                   # --jobs; exit 1 on any invariant
//                                   # violation. --replay re-executes a
//                                   # minimized repro token
//   kopcc postmortem [--json] [--check-schema] [--seed N]
//         [--engine=interp|bytecode] [--recovery=quarantine|restart]
//                                   # force one guard violation to
//                                   # containment and print the flight-
//                                   # recorder postmortem bundle;
//                                   # --check-schema exits 1 unless the
//                                   # JSON carries every documented key
//   kopcc stats [--watch] [--prom]  # run a canned guarded workload and
//                                   # print the metrics registry + span
//                                   # latency table; --prom renders the
//                                   # Prometheus text exposition;
//                                   # --watch redraws every second
//
// Exit code 0 on success; 1 on failure (diagnostics on stderr).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kop/analysis/cfi.hpp"
#include "kop/analysis/static_verifier.hpp"
#include "kop/fault/campaign.hpp"
#include "kop/fault/forge.hpp"
#include "kop/flight/postmortem.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kir/verifier.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/kir/bytecode.hpp"
#include "kop/kir/parser.hpp"
#include "kop/kir/printer.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/signing/validator.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/transform/guard_sites.hpp"

namespace {

using namespace kop;

int Fail(const std::string& message) {
  std::fprintf(stderr, "kopcc: %s\n", message.c_str());
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return Internal("cannot write " + path);
  file << content;
  return OkStatus();
}

/// How a guard site executes at runtime: "inline" (fast-path range check
/// in the engine), "cover" (a widened/hoisted carat_guard_range), or
/// "intrinsic" (privileged-intrinsic gate).
const char* SiteKindName(const transform::GuardSite& site) {
  if (site.is_intrinsic) return "intrinsic";
  if (site.is_range) return "cover";
  return "inline";
}

const transform::ElisionRecord* FindElision(
    const std::vector<transform::ElisionRecord>& elisions, uint32_t site_id) {
  for (const transform::ElisionRecord& rec : elisions) {
    if (rec.site_id == site_id) return &rec;
  }
  return nullptr;
}

/// One human-readable proof line for a cover site, e.g.
///   "widen span=16 flags=1 elided=1: [+0 8B f1] [+8 8B f1]".
std::string RenderElisionProof(const transform::ElisionRecord& rec) {
  std::string out = rec.kind + " span=" + std::to_string(rec.span) +
                    " flags=" + std::to_string(rec.flags) +
                    " elided=" + std::to_string(rec.members.size() - 1) + ":";
  for (const transform::ElisionMember& m : rec.members) {
    out += " [+" + std::to_string(m.offset) + " " + std::to_string(m.size) +
           "B f" + std::to_string(m.flags) + "]";
  }
  return out;
}

std::string RenderElisionJson(const transform::ElisionRecord& rec) {
  std::string out = "{\"kind\":\"" + analysis::JsonEscape(rec.kind) +
                    "\",\"span\":" + std::to_string(rec.span) +
                    ",\"flags\":" + std::to_string(rec.flags) +
                    ",\"members\":[";
  bool first = true;
  for (const transform::ElisionMember& m : rec.members) {
    if (!first) out += ",";
    first = false;
    out += "{\"offset\":" + std::to_string(m.offset) +
           ",\"size\":" + std::to_string(m.size) +
           ",\"flags\":" + std::to_string(m.flags) + "}";
  }
  out += "]}";
  return out;
}

/// The annotated guard-site table for check --json: every site with its
/// runtime kind, and for covers the elision proof the validator re-proved.
std::string RenderSitesJson(
    const std::vector<transform::GuardSite>& sites,
    const std::vector<transform::ElisionRecord>& elisions) {
  std::string out = "[";
  bool first = true;
  for (const transform::GuardSite& site : sites) {
    if (!first) out += ",";
    first = false;
    out += "{\"site\":" + std::to_string(site.site_id) +
           ",\"function\":\"" + analysis::JsonEscape(site.function) +
           "\",\"inst\":" + std::to_string(site.inst_index) +
           ",\"kind\":\"" + SiteKindName(site) +
           "\",\"size\":" + std::to_string(site.access_size) +
           ",\"flags\":" + std::to_string(site.access_flags) +
           ",\"elided\":" + std::to_string(site.elided);
    if (const transform::ElisionRecord* rec =
            FindElision(elisions, site.site_id)) {
      out += ",\"proof\":" + RenderElisionJson(*rec);
    }
    out += "}";
  }
  out += "]";
  return out;
}

/// "gate" when the legal-target set names an external symbol (the
/// indirect module->kernel call gate), "intra" for module-local sets.
const char* CfiSiteKind(const analysis::CfiSite& site) {
  return site.gate ? "gate" : "intra";
}

/// The per-indirect-call CFI annotation block for check --json: the
/// deduped legal-target sets plus one entry per icall with its set id,
/// target count, gate/intra classification, and check adjacency.
std::string RenderCfiJson(const analysis::CfiSummary& cfi) {
  std::string out = "{\"sets\":[";
  for (size_t i = 0; i < cfi.sets.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"id\":" + std::to_string(i) + ",\"members\":[";
    for (size_t m = 0; m < cfi.sets[i].members.size(); ++m) {
      if (m != 0) out += ",";
      out += "\"" + analysis::JsonEscape(cfi.sets[i].members[m]) + "\"";
    }
    out += "]}";
  }
  out += "],\"sites\":[";
  bool first = true;
  for (const analysis::CfiSite& site : cfi.sites) {
    if (!first) out += ",";
    first = false;
    out += "{\"function\":\"" + analysis::JsonEscape(site.function) +
           "\",\"inst\":" + std::to_string(site.inst_index) +
           ",\"call\":" + std::to_string(site.call_ordinal) +
           ",\"set\":" + std::to_string(site.set_id) +
           ",\"targets\":" +
           std::to_string(cfi.sets[site.set_id].members.size()) +
           ",\"kind\":\"" + CfiSiteKind(site) + "\",\"top\":" +
           (site.derived_top ? "true" : "false") + ",\"checked\":" +
           (site.has_check && site.check_covers_target &&
                    site.check_set_id ==
                        static_cast<int64_t>(site.set_id)
                ? "true"
                : "false") +
           "}";
  }
  out += "]}";
  return out;
}

int Compile(const std::vector<std::string>& args) {
  std::string input;
  std::string output;
  transform::CompileOptions options;
  signing::SigningKey key = signing::SigningKey::DevelopmentKey();

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "-o" && i + 1 < args.size()) {
      output = args[++i];
    } else if (arg == "--no-guards") {
      options.inject_guards = false;
    } else if (arg == "--simplify") {
      options.simplify = true;
    } else if (arg == "--wrap-priv") {
      options.wrap_privileged_intrinsics = true;
    } else if (arg == "--coalesce") {
      options.coalesce_guards = true;
    } else if (arg == "--dominate") {
      options.dominate_guards = true;
    } else if (arg == "--elide") {
      options.elide_guards = true;
    } else if (arg == "--no-elide") {
      options.elide_guards = false;
    } else if (arg == "--key-id" && i + 1 < args.size()) {
      key.key_id = args[++i];
    } else if (arg == "--key-secret" && i + 1 < args.size()) {
      key.secret = args[++i];
    } else if (arg[0] == '-') {
      return Fail("unknown option '" + arg + "'");
    } else if (input.empty()) {
      input = arg;
    } else {
      return Fail("multiple inputs");
    }
  }
  if (input.empty()) return Fail("no input file");
  if (output.empty()) {
    output = input;
    const size_t dot = output.rfind('.');
    if (dot != std::string::npos) output.resize(dot);
    output += ".kko";
  }

  auto source = ReadFile(input);
  if (!source.ok()) return Fail(source.status().ToString());
  auto compiled = transform::CompileModuleText(*source, options);
  if (!compiled.ok()) return Fail(compiled.status().ToString());
  const auto image =
      signing::SignModule(compiled->text, compiled->attestation, key);
  if (Status status = WriteFile(output, image.Serialize()); !status.ok()) {
    return Fail(status.ToString());
  }
  std::string elide_note;
  if (compiled->elide_stats.covers_emitted != 0) {
    elide_note = ", " + std::to_string(compiled->elide_stats.clusters_widened) +
                 " widened + " +
                 std::to_string(compiled->elide_stats.guards_hoisted) +
                 " hoisted -> " +
                 std::to_string(compiled->elide_stats.covers_emitted) +
                 " covers";
  }
  std::printf("kopcc: %s -> %s (%llu guards%s%s, key %s)\n", input.c_str(),
              output.c_str(),
              static_cast<unsigned long long>(
                  compiled->attestation.guard_count),
              compiled->attestation.guards_optimized ? ", optimized" : "",
              elide_note.c_str(), key.key_id.c_str());
  return 0;
}

int Inspect(const std::vector<std::string>& args) {
  bool sites_only = false;
  bool bytecode_only = false;
  std::string path;
  for (const std::string& arg : args) {
    if (arg == "--sites") {
      sites_only = true;
    } else if (arg == "--bytecode") {
      bytecode_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown inspect option '" + arg + "'");
    } else if (path.empty()) {
      path = arg;
    } else {
      return Fail("inspect takes one container");
    }
  }
  if (path.empty()) return Fail("inspect takes one container");
  auto container = ReadFile(path);
  if (!container.ok()) return Fail(container.status().ToString());
  auto image = signing::SignedModule::Deserialize(*container);
  if (!image.ok()) return Fail(image.status().ToString());
  if (bytecode_only) {
    auto module = kir::ParseModule(image->module_text);
    if (!module.ok()) return Fail(module.status().ToString());
    auto bytecode = kir::CompileToBytecode(**module);
    if (!bytecode.ok()) return Fail(bytecode.status().ToString());
    std::fputs(kir::DisassembleBytecode(*bytecode).c_str(), stdout);
    // guard.range ops in the listing carry a proof obligation; print the
    // attested provenance so the listing is auditable on its own.
    auto attestation =
        transform::AttestationRecord::Deserialize(image->attestation_text);
    if (attestation.ok() && !attestation->elisions.empty()) {
      std::printf("--- elision provenance (%zu covers) ---\n",
                  attestation->elisions.size());
      for (const transform::ElisionRecord& rec : attestation->elisions) {
        std::printf("site %u @%s inst %u: %s\n", rec.site_id,
                    rec.function.c_str(), rec.inst_index,
                    RenderElisionProof(rec).c_str());
      }
    }
    // Same auditability for cfi.check ops: the attested legal-target
    // sets each set id in the listing resolves against.
    if (attestation.ok() && attestation->cfi_gated) {
      std::printf("--- cfi target sets (%zu sets, %zu gated icalls) ---\n",
                  attestation->cfi_sets.size(),
                  attestation->cfi_sites.size());
      for (const transform::CfiAttestedSet& set : attestation->cfi_sets) {
        std::printf("set %u (%zu targets):", set.set_id, set.members.size());
        for (const std::string& member : set.members) {
          std::printf(" @%s", member.c_str());
        }
        std::printf("\n");
      }
      for (const transform::CfiAttestedSite& site : attestation->cfi_sites) {
        std::printf("icall @%s inst %u: set %u (check call #%lld, "
                    "icall call #%llu)\n",
                    site.function.c_str(), site.inst_index, site.set_id,
                    static_cast<long long>(site.check_ordinal),
                    static_cast<unsigned long long>(site.icall_ordinal));
      }
    }
    return 0;
  }
  if (sites_only) {
    auto attestation =
        transform::AttestationRecord::Deserialize(image->attestation_text);
    if (!attestation.ok()) return Fail(attestation.status().ToString());
    std::vector<transform::GuardSite> sites = attestation->sites;
    if (sites.empty()) {
      // Pre-site-table container: derive the table from the shipped IR.
      auto module = kir::ParseModule(image->module_text);
      if (!module.ok()) return Fail(module.status().ToString());
      sites = transform::EnumerateGuardSites(**module);
    }
    std::printf("%zu guard sites in '%s':\n", sites.size(),
                attestation->module_name.c_str());
    std::printf("site  call  inst  kind       size  flags  elided  function\n");
    for (const transform::GuardSite& site : sites) {
      std::printf("%-5u %-5llu %-5u %-10s %-5u %-6u %-7u @%s\n", site.site_id,
                  static_cast<unsigned long long>(site.call_ordinal),
                  site.inst_index, SiteKindName(site), site.access_size,
                  site.access_flags, site.elided, site.function.c_str());
      if (const transform::ElisionRecord* rec =
              FindElision(attestation->elisions, site.site_id)) {
        std::printf("      proof: %s\n", RenderElisionProof(*rec).c_str());
      }
    }
    return 0;
  }
  std::printf("container: %s\n", path.c_str());
  std::printf("key id:    %s\n", image->key_id.c_str());
  std::printf("signature: %s\n",
              signing::DigestHex(image->signature).c_str());
  std::printf("--- attestation ---\n%s", image->attestation_text.c_str());
  std::printf("--- module (%zu bytes) ---\n%s", image->module_text.size(),
              image->module_text.c_str());
  return 0;
}

int Verify(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("verify takes a container");
  auto container = ReadFile(args[0]);
  if (!container.ok()) return Fail(container.status().ToString());
  auto image = signing::SignedModule::Deserialize(*container);
  if (!image.ok()) return Fail(image.status().ToString());
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  // Additional trusted keys: --trust <id> <secret> pairs.
  for (size_t i = 1; i + 2 < args.size() + 1; ++i) {
    if (args[i] == "--trust" && i + 2 < args.size() + 1 &&
        i + 2 <= args.size()) {
      keyring.Trust(signing::SigningKey{args[i + 1], args[i + 2]});
      i += 2;
    }
  }
  auto validated = signing::ValidateSignedModule(*image, keyring);
  if (!validated.ok()) {
    std::printf("REJECTED: %s\n", validated.status().ToString().c_str());
    return 1;
  }
  std::printf("OK: module '%s', %llu guards, %zu instructions, signed by "
              "%s\n",
              validated->module->name().c_str(),
              static_cast<unsigned long long>(
                  validated->attestation.guard_count),
              validated->module->InstructionCount(),
              image->key_id.c_str());
  return 0;
}

struct CheckResult {
  analysis::AnalysisReport report;
  std::vector<transform::GuardSite> sites;
  std::vector<transform::ElisionRecord> elisions;
  analysis::CfiSummary cfi;
};

/// Analyze module source: a .kko container is analyzed exactly as
/// shipped; anything else is treated as KIR source and compiled first.
/// The guard-site table and elision provenance travel along so check
/// output can annotate each site with its runtime kind and cover proof.
Result<CheckResult> CheckOne(const std::string& content,
                             const transform::CompileOptions& options,
                             bool as_shipped) {
  CheckResult out;
  std::string module_text;
  if (auto image = signing::SignedModule::Deserialize(content); image.ok()) {
    module_text = image->module_text;
    if (auto attestation = transform::AttestationRecord::Deserialize(
            image->attestation_text);
        attestation.ok()) {
      out.elisions = attestation->elisions;
    }
  } else if (as_shipped) {
    // Analyze the KIR exactly as written: no guard/CFI injection. The
    // mode for adversarial inputs whose guards are already placed —
    // wrongly — the way a malicious toolchain would place them; the
    // compiler would silently repair them.
    module_text = content;
  } else {
    auto compiled = transform::CompileModuleText(content, options);
    if (!compiled.ok()) return compiled.status();
    module_text = compiled->text;
    out.elisions = compiled->attestation.elisions;
  }
  auto module = kir::ParseModule(module_text);
  if (!module.ok()) return module.status();
  KOP_RETURN_IF_ERROR(kir::VerifyModule(**module));
  out.sites = transform::EnumerateGuardSites(**module);
  out.report = analysis::AnalyzeModule(**module);
  out.cfi = analysis::DeriveCfi(**module);
  return out;
}

int Check(const std::vector<std::string>& args) {
  bool json = false;
  bool corpus = false;
  bool as_shipped = false;
  std::string input;
  transform::CompileOptions options;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      json = true;
    } else if (arg == "--corpus") {
      corpus = true;
    } else if (arg == "--as-shipped") {
      as_shipped = true;
    } else if (arg == "--no-guards") {
      options.inject_guards = false;
    } else if (arg == "--simplify") {
      options.simplify = true;
    } else if (arg == "--wrap-priv") {
      options.wrap_privileged_intrinsics = true;
    } else if (arg == "--coalesce") {
      options.coalesce_guards = true;
    } else if (arg == "--dominate") {
      options.dominate_guards = true;
    } else if (arg == "--elide") {
      options.elide_guards = true;
    } else if (arg == "--no-elide") {
      options.elide_guards = false;
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown check option '" + arg + "'");
    } else if (input.empty()) {
      input = arg;
    } else {
      return Fail("check takes one input");
    }
  }

  if (corpus) {
    if (!input.empty()) return Fail("--corpus takes no input file");
    bool all_as_expected = true;
    std::string json_out = "[";
    bool first = true;
    const auto record = [&](const std::string& name, bool expect_clean,
                            const analysis::AnalysisReport& report) {
      const bool as_expected = expect_clean == report.ok();
      all_as_expected = all_as_expected && as_expected;
      if (json) {
        if (!first) json_out += ",";
        first = false;
        json_out += "{\"module\":\"" + analysis::JsonEscape(name) +
                    "\",\"expect_clean\":" +
                    (expect_clean ? "true" : "false") +
                    ",\"as_expected\":" + (as_expected ? "true" : "false") +
                    ",\"report\":" + analysis::RenderJson(report) + "}";
      } else {
        std::fputs(analysis::RenderText(report).c_str(), stdout);
        std::printf("%s: expected %s, %s\n\n", name.c_str(),
                    expect_clean ? "clean" : "rejection",
                    as_expected ? "as expected" : "NOT AS EXPECTED");
      }
    };
    for (const kirmods::CorpusEntry& entry : kirmods::AllCorpusModules()) {
      auto checked = CheckOne(entry.source, options, /*as_shipped=*/false);
      if (!checked.ok()) return Fail(entry.name + ": " +
                                     checked.status().ToString());
      record(entry.name, /*expect_clean=*/true, checked->report);
    }
    // Adversarial modules ship pre-placed (wrong) guards: analyze the
    // source as-is, no compile step — the compiler would fix them.
    for (const kirmods::CorpusEntry& entry :
         kirmods::AdversarialCorpusModules()) {
      auto module = kir::ParseModule(entry.source);
      if (!module.ok()) return Fail(entry.name + ": " +
                                    module.status().ToString());
      if (Status status = kir::VerifyModule(**module); !status.ok()) {
        return Fail(entry.name + ": " + status.ToString());
      }
      record(entry.name, /*expect_clean=*/false,
             analysis::AnalyzeModule(**module));
    }
    if (json) std::printf("%s]\n", json_out.c_str());
    return all_as_expected ? 0 : 1;
  }

  if (input.empty()) return Fail("check takes an input file or --corpus");
  auto content = ReadFile(input);
  if (!content.ok()) return Fail(content.status().ToString());
  auto checked = CheckOne(*content, options, as_shipped);
  if (!checked.ok()) return Fail(checked.status().ToString());
  if (json) {
    std::printf("{\"report\":%s,\"guard_sites\":%s,\"cfi\":%s}\n",
                analysis::RenderJson(checked->report).c_str(),
                RenderSitesJson(checked->sites, checked->elisions).c_str(),
                RenderCfiJson(checked->cfi).c_str());
  } else {
    std::fputs(analysis::RenderText(checked->report).c_str(), stdout);
    if (!checked->elisions.empty()) {
      std::printf("elision provenance (%zu covers):\n",
                  checked->elisions.size());
      for (const transform::ElisionRecord& rec : checked->elisions) {
        std::printf("  site %u @%s inst %u: %s\n", rec.site_id,
                    rec.function.c_str(), rec.inst_index,
                    RenderElisionProof(rec).c_str());
      }
    }
    if (!checked->cfi.sites.empty()) {
      std::printf("cfi sites (%zu, %zu target set(s)):\n",
                  checked->cfi.sites.size(), checked->cfi.sets.size());
      for (const analysis::CfiSite& site : checked->cfi.sites) {
        std::printf("  @%s inst %u: set %u (%zu targets, %s%s)\n",
                    site.function.c_str(), site.inst_index, site.set_id,
                    checked->cfi.sets[site.set_id].members.size(),
                    CfiSiteKind(site),
                    site.has_check ? ", checked" : ", unchecked");
      }
    }
  }
  return checked->report.ok() ? 0 : 1;
}

int Run(const std::vector<std::string>& args) {
  std::string path;
  std::string entry = "init";
  kernel::ExecEngine engine = kernel::DefaultExecEngine();
  uint32_t cpus = 1;
  std::vector<uint64_t> call_args;
  for (const std::string& arg : args) {
    if (arg.rfind("--engine=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "interp") {
        engine = kernel::ExecEngine::kInterp;
      } else if (name == "bytecode") {
        engine = kernel::ExecEngine::kBytecode;
      } else {
        return Fail("unknown engine '" + name + "'");
      }
    } else if (arg.rfind("--entry=", 0) == 0) {
      entry = arg.substr(8);
    } else if (arg.rfind("--cpus=", 0) == 0) {
      try {
        cpus = static_cast<uint32_t>(std::stoul(arg.substr(7), nullptr, 0));
      } catch (const std::exception&) {
        return Fail("bad --cpus value");
      }
      if (cpus == 0 || cpus > smp::kMaxCpus) {
        return Fail("--cpus must be 1.." + std::to_string(smp::kMaxCpus));
      }
    } else if (!arg.empty() && arg[0] == '-' &&
               !(arg.size() > 1 && (arg[1] >= '0' && arg[1] <= '9'))) {
      return Fail("unknown run option '" + arg + "'");
    } else if (path.empty()) {
      path = arg;
    } else {
      try {
        call_args.push_back(std::stoull(arg, nullptr, 0));
      } catch (const std::exception&) {
        return Fail("bad argument '" + arg + "' (expected an integer)");
      }
    }
  }
  if (path.empty()) return Fail("run takes a container");

  auto container = ReadFile(path);
  if (!container.ok()) return Fail(container.status().ToString());
  auto image = signing::SignedModule::Deserialize(*container);
  if (!image.ok()) return Fail(image.status().ToString());

  kernel::Kernel kernel;
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  kernel::ModuleLoader loader(&kernel, std::move(keyring));
  loader.set_engine(engine);
  auto policy = policy::PolicyModule::Insert(&kernel, nullptr,
                                             policy::PolicyMode::kDefaultAllow);
  if (!policy.ok()) return Fail(policy.status().ToString());

  auto loaded = loader.Insmod(*image);
  if (!loaded.ok()) return Fail(loaded.status().ToString());

  if (cpus > 1) {
    // SMP run: every simulated CPU calls the same entry concurrently on
    // its own per-CPU execution context (and its own trace-ring lane).
    if (Status prepared = loader.PrepareCpus(cpus); !prepared.ok()) {
      return Fail(prepared.ToString());
    }
    std::vector<Result<uint64_t>> results(cpus, uint64_t{0});
    smp::RunOnCpus(cpus, [&](uint32_t cpu) {
      results[cpu] = (*loaded)->Call(entry, call_args);
    });
    for (uint32_t cpu = 0; cpu < cpus; ++cpu) {
      if (results[cpu].ok()) {
        std::printf("cpu%u: @%s -> %llu (0x%llx)\n", cpu, entry.c_str(),
                    static_cast<unsigned long long>(*results[cpu]),
                    static_cast<unsigned long long>(*results[cpu]));
      } else {
        std::printf("cpu%u: @%s -> %s\n", cpu, entry.c_str(),
                    results[cpu].status().ToString().c_str());
      }
    }
    const policy::GuardStats guard_stats = (*policy)->engine().stats();
    const double elapsed = kernel.clock().MaxCycles();
    std::printf(
        "engine %s on %u cpus: %llu guard calls (%llu denied), %.0f "
        "virtual cycles elapsed, %.2f guards/kcycle\n",
        std::string((*loaded)->engine_name()).c_str(), cpus,
        static_cast<unsigned long long>(guard_stats.guard_calls),
        static_cast<unsigned long long>(guard_stats.denied),
        elapsed,
        elapsed > 0
            ? 1000.0 * static_cast<double>(guard_stats.guard_calls) / elapsed
            : 0.0);
    bool any_failed = false;
    for (const auto& r : results) any_failed = any_failed || !r.ok();
    return any_failed ? 1 : 0;
  }

  auto result = (*loaded)->Call(entry, call_args);
  if (!result.ok()) return Fail("@" + entry + ": " + result.status().ToString());

  const kir::InterpStats& stats = (*loaded)->exec_stats();
  const policy::GuardStats guard_stats = (*policy)->engine().stats();
  std::printf("@%s -> %llu (0x%llx)\n", entry.c_str(),
              static_cast<unsigned long long>(*result),
              static_cast<unsigned long long>(*result));
  std::printf("engine %s: %llu steps, %llu loads, %llu stores, %llu guard "
              "calls (%llu denied)\n",
              std::string((*loaded)->engine_name()).c_str(),
              static_cast<unsigned long long>(stats.steps),
              static_cast<unsigned long long>(stats.loads),
              static_cast<unsigned long long>(stats.stores),
              static_cast<unsigned long long>(guard_stats.guard_calls),
              static_cast<unsigned long long>(guard_stats.denied));
  return 0;
}

int FaultCamp(const std::vector<std::string>& args) {
  fault::CampaignConfig config;
  bool json = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--seed" && i + 1 < args.size()) {
      try {
        config.seed = std::stoull(args[++i], nullptr, 0);
      } catch (const std::exception&) {
        return Fail("bad seed");
      }
    } else if (arg == "--trials" && i + 1 < args.size()) {
      try {
        config.min_trials =
            static_cast<uint32_t>(std::stoul(args[++i], nullptr, 0));
      } catch (const std::exception&) {
        return Fail("bad trial count");
      }
    } else if (arg.rfind("--engine=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "interp") {
        config.engine = kernel::ExecEngine::kInterp;
      } else if (name == "bytecode") {
        config.engine = kernel::ExecEngine::kBytecode;
      } else {
        return Fail("unknown engine '" + name + "'");
      }
    } else if (arg.rfind("--recovery=", 0) == 0) {
      const std::string name = arg.substr(11);
      if (name == "quarantine") {
        config.recovery = resilience::RecoveryPolicy::kQuarantine;
      } else if (name == "restart") {
        config.recovery = resilience::RecoveryPolicy::kRestart;
      } else {
        return Fail("unknown recovery policy '" + name + "'");
      }
    } else {
      return Fail("unknown faultcamp option '" + arg + "'");
    }
  }
  const fault::CampaignReport report = fault::RunCampaign(config);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::fputs(report.ToText().c_str(), stdout);
  }
  if (!report.ok()) {
    // A failing trial is exactly what the flight recorder exists for:
    // surface the most recent bundle (the store is reset per trial, so
    // this is the last incident the campaign saw) alongside the report.
    flight::PostmortemBundle bundle;
    if (flight::GlobalPostmortems().Latest(&bundle)) {
      std::fputs("--- latest postmortem bundle ---\n", stderr);
      std::fputs(bundle.ToText().c_str(), stderr);
    }
    return 1;
  }
  return 0;
}

int Forge(const std::vector<std::string>& args) {
  fault::ForgeConfig config;
  bool json = false;
  std::string replay_token;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--seed" && i + 1 < args.size()) {
      try {
        config.seed = std::stoull(args[++i], nullptr, 0);
      } catch (const std::exception&) {
        return Fail("bad seed");
      }
    } else if (arg == "--trials" && i + 1 < args.size()) {
      try {
        config.trials =
            static_cast<uint32_t>(std::stoul(args[++i], nullptr, 0));
      } catch (const std::exception&) {
        return Fail("bad trial count");
      }
    } else if (arg == "--jobs" && i + 1 < args.size()) {
      try {
        config.jobs =
            static_cast<uint32_t>(std::stoul(args[++i], nullptr, 0));
      } catch (const std::exception&) {
        return Fail("bad job count");
      }
    } else if (arg == "--replay" && i + 1 < args.size()) {
      replay_token = args[++i];
    } else if (arg == "--no-minimize") {
      config.minimize = false;
    } else if (arg.rfind("--policy=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "hardened") {
        config.policy = fault::PolicyFamily::kHardened;
      } else if (name == "weak") {
        config.policy = fault::PolicyFamily::kWeak;
      } else {
        return Fail("unknown policy family '" + name + "'");
      }
    } else if (arg.rfind("--engine=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "interp") {
        config.engine = kernel::ExecEngine::kInterp;
      } else if (name == "bytecode") {
        config.engine = kernel::ExecEngine::kBytecode;
      } else {
        return Fail("unknown engine '" + name + "'");
      }
    } else if (arg.rfind("--recovery=", 0) == 0) {
      const std::string name = arg.substr(11);
      if (name == "quarantine") {
        config.recovery = resilience::RecoveryPolicy::kQuarantine;
      } else if (name == "restart") {
        config.recovery = resilience::RecoveryPolicy::kRestart;
      } else {
        return Fail("unknown recovery policy '" + name + "'");
      }
    } else {
      return Fail("unknown forge option '" + arg + "'");
    }
  }

  if (!replay_token.empty()) {
    auto row = fault::ReplayForge(config, replay_token);
    if (!row.ok()) return Fail(row.status().ToString());
    std::printf("replay %s\n", replay_token.c_str());
    std::printf("  base %u, %zu step(s), kind %s, outcome: %s\n",
                row->input.base_seed, row->input.trail.size(),
                std::string(fault::FaultKindName(row->plan.kind)).c_str(),
                row->result.outcome.c_str());
    std::printf("  flagged path: %s, protected object: %s\n",
                row->reached_flagged ? "reached" : "not reached",
                row->scribbled ? "SCRIBBLED" : "intact");
    for (const std::string& failure : row->result.invariant_failures) {
      std::printf("  INVARIANT: %s\n", failure.c_str());
    }
    return row->result.invariant_failures.empty() ? 0 : 1;
  }

  const fault::ForgeReport report = fault::RunForge(config);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::fputs(report.ToText().c_str(), stdout);
  }
  return report.ok() ? 0 : 1;
}

/// The documented bundle schema (DESIGN.md §14): every key that must be
/// present in a kop.flight.postmortem/v1 rendering.
const char* const kPostmortemSchemaKeys[] = {
    "\"schema\":\"kop.flight.postmortem/v1\"",
    "\"module\":",
    "\"engine\":",
    "\"reason\":",
    "\"what\":",
    "\"recovery\":",
    "\"cpu\":",
    "\"tsc\":",
    "\"violation\":",
    "\"vm\":",
    "\"journal\":{",
    "\"heap\":{",
    "\"restarts\":{",
    "\"policy\":",
    "\"heatmap\":[",
    "\"trace\":[",
};

int Postmortem(const std::vector<std::string>& args) {
  fault::CampaignConfig config;
  bool json = false;
  bool check_schema = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--check-schema") {
      check_schema = true;
    } else if (arg == "--seed" && i + 1 < args.size()) {
      try {
        config.seed = std::stoull(args[++i], nullptr, 0);
      } catch (const std::exception&) {
        return Fail("bad seed");
      }
    } else if (arg.rfind("--engine=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "interp") {
        config.engine = kernel::ExecEngine::kInterp;
      } else if (name == "bytecode") {
        config.engine = kernel::ExecEngine::kBytecode;
      } else {
        return Fail("unknown engine '" + name + "'");
      }
    } else if (arg.rfind("--recovery=", 0) == 0) {
      const std::string name = arg.substr(11);
      if (name == "quarantine") {
        config.recovery = resilience::RecoveryPolicy::kQuarantine;
      } else if (name == "restart") {
        config.recovery = resilience::RecoveryPolicy::kRestart;
      } else {
        return Fail("unknown recovery policy '" + name + "'");
      }
    } else {
      return Fail("unknown postmortem option '" + arg + "'");
    }
  }

  auto bundle = fault::RunPostmortemDemo(config);
  if (!bundle.ok()) return Fail(bundle.status().ToString());
  const std::string rendered = bundle->ToJson();
  if (json) {
    std::printf("%s\n", rendered.c_str());
  } else {
    std::fputs(bundle->ToText().c_str(), stdout);
  }
  if (check_schema) {
    int missing = 0;
    for (const char* key : kPostmortemSchemaKeys) {
      if (rendered.find(key) == std::string::npos) {
        std::fprintf(stderr, "kopcc: postmortem bundle missing %s\n", key);
        ++missing;
      }
    }
    if (missing != 0) return 1;
    std::fprintf(stderr, "kopcc: postmortem schema OK (%zu keys)\n",
                 sizeof(kPostmortemSchemaKeys) /
                     sizeof(kPostmortemSchemaKeys[0]));
  }
  return 0;
}

int Stats(const std::vector<std::string>& args) {
  bool watch = false;
  bool prom = false;
  for (const std::string& arg : args) {
    if (arg == "--watch") {
      watch = true;
    } else if (arg == "--prom") {
      prom = true;
    } else {
      return Fail("unknown stats option '" + arg + "'");
    }
  }

  // Canned guarded workload: the ringbuf corpus module under a
  // default-allow policy, so every push/pop exercises the guard path and
  // the span seams (module call, engine dispatch, guard decision,
  // journal commit).
  kernel::Kernel kernel;
  auto policy = policy::PolicyModule::Insert(&kernel, nullptr,
                                             policy::PolicyMode::kDefaultAllow);
  if (!policy.ok()) return Fail(policy.status().ToString());
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  kernel::ModuleLoader loader(&kernel, std::move(keyring));
  auto compiled = transform::CompileModuleText(kirmods::RingbufSource());
  if (!compiled.ok()) return Fail(compiled.status().ToString());
  auto loaded = loader.Insmod(
      signing::SignModule(compiled->text, compiled->attestation,
                          signing::SigningKey::DevelopmentKey()));
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  kernel::LoadedModule* mod = *loaded;
  if (auto init = mod->Call("rb_init", {}); !init.ok()) {
    return Fail(init.status().ToString());
  }

  uint64_t round = 0;
  const auto frame = [&]() -> std::string {
    // A burst per frame so --watch shows the counters moving.
    for (uint64_t i = 0; i < 16; ++i) {
      (void)mod->Call("rb_push", {round * 16 + i});
    }
    for (int i = 0; i < 8; ++i) (void)mod->Call("rb_pop", {});
    ++round;
    if (prom) {
      return trace::GlobalMetrics().RenderPrometheus() +
             trace::GlobalSpans().RenderPrometheus();
    }
    return trace::GlobalMetrics().RenderText() + "\n" +
           trace::GlobalSpans().RenderText();
  };

  if (!watch) {
    std::fputs(frame().c_str(), stdout);
    return 0;
  }
  for (;;) {
    const std::string rendered = frame();
    std::printf("\033[2J\033[H%s", rendered.c_str());
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail(
        "usage: kopcc compile <in.kir> [-o out.kko] [options] "
        "[--elide|--no-elide] | "
        "inspect [--sites|--bytecode] <in.kko> | verify <in.kko> | "
        "check <in.kir|in.kko> [--json] [--as-shipped] | "
        "check --corpus [--json] | "
        "run <in.kko> [--engine=interp|bytecode] [--entry=fn] [--cpus=N] "
        "[args...] | "
        "faultcamp [--seed N] [--trials N] [--json] "
        "[--engine=...] [--recovery=...] | "
        "forge [--seed N] [--trials N] [--jobs N] [--json] "
        "[--policy=hardened|weak] [--no-minimize] [--engine=...] "
        "[--recovery=...] [--replay <token>] | "
        "postmortem [--json] [--check-schema] [--seed N] [--engine=...] "
        "[--recovery=...] | "
        "stats [--watch] [--prom]");
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "compile") return Compile(args);
  if (command == "inspect") return Inspect(args);
  if (command == "verify") return Verify(args);
  if (command == "check") return Check(args);
  if (command == "run") return Run(args);
  if (command == "faultcamp") return FaultCamp(args);
  if (command == "forge") return Forge(args);
  if (command == "postmortem") return Postmortem(args);
  if (command == "stats") return Stats(args);
  return Fail("unknown command '" + command + "'");
}
