// Compile workload: seeded profiled PIMs through the model-compiler flow.
//
//   compile_bench --seed N --seconds S [--traced] [--out DIR]
//
// Set-up (timed, repeated, median reported) loads the IP library and its
// SoC profile. The inputs are then generated from the seed and are not
// timed: uml::make_synthetic_model models whose classes are tagged
// «HwModule» or «SwTask», plus IP instances from the library, a «HwModule»
// top whose parts are those instances, and one flattenable statechart per
// IP instance. Each model and its statecharts are serialised to XMI.
//
// One compile is the examples/model_compiler pipeline, called through the
// libraries' public functions: xmi::read_model (+ statecharts), uml, SoC and
// ASL-constraint validation, mda::transform to software and hardware, RTL
// (module, testbench, top, FSM), SystemC-style C++, software C++,
// generate_statechart_tables over the compiled statecharts,
// statechart::flatten, PlantUML, and xmi::write_model of the read model.
//
// Before the timed loop every model is compiled once and checked: the RTL
// passes check_rtl_structure, the C++ passes check_cpp_structure, the
// written XMI reads back structurally equal, and no step reports an error.
// That pass records a digest of every output; the timed loop compiles the
// models round-robin for S seconds and each compile must repeat its digest.
//
// Prints one JSON object with the raw counts and times.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "asl/constraints.hpp"
#include "codegen/plantuml.hpp"
#include "codegen/rtl.hpp"
#include "codegen/software.hpp"
#include "codegen/systemc.hpp"
#include "mda/transform.hpp"
#include "soc/iplibrary.hpp"
#include "soc/validate.hpp"
#include "calibrate.hpp"
#include "spans.hpp"
#include "usage.hpp"
#include "statechart/compile.hpp"
#include "statechart/flatten.hpp"
#include "statechart/synthetic.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "uml/compare.hpp"
#include "uml/query.hpp"
#include "uml/synthetic.hpp"
#include "uml/validate.hpp"
#include "xmi/behavior.hpp"
#include "xmi/serialize.hpp"

namespace {

using namespace umlsoc;
namespace spans = perfbench::spans;

/// One model as the compiler receives it: XMI text only.
struct ModelInput {
  std::string xmi;
  std::vector<std::string> statecharts;
};

constexpr const char* kIpNames[] = {"Uart", "SpiMaster", "Timer", "DmaEngine"};

/// Models per run. Model i gets 2 + i % 3 IP instances, so every seed has
/// the same mix of sizes; the seed picks the content.
constexpr std::size_t kModels = 48;

ModelInput make_model(soc::IpLibrary& library, std::size_t index, std::uint64_t seed) {
  support::Rng rng(seed);
  uml::SyntheticSpec spec;
  spec.seed = rng.next();
  spec.packages = 2;
  spec.classes_per_package = 4;
  std::unique_ptr<uml::Model> pim = uml::make_synthetic_model(spec);
  const soc::SocProfile profile = soc::SocProfile::install(*pim);
  std::size_t tagged = 0;
  for (uml::Class* cls : uml::collect<uml::Class>(*pim)) {
    if (tagged++ % 2 == 0) {
      cls->apply_stereotype(*profile.hw_module);
      cls->set_tagged_value(*profile.hw_module, "clockMHz", "100");
    } else {
      cls->apply_stereotype(*profile.sw_task);
    }
  }

  support::DiagnosticSink sink;
  uml::Package& ip = pim->add_package("ip");
  uml::Component& top = ip.add_component("SocTop");
  top.apply_stereotype(*profile.hw_module);
  ModelInput input;
  const std::size_t ip_count = 2 + index % 3;
  for (std::size_t i = 0; i < ip_count; ++i) {
    const char* ip_name = kIpNames[(seed + i) % 4];
    const std::string instance = std::string(ip_name) + std::to_string(i);
    uml::Component* component = library.instantiate(ip_name, *pim, ip, instance, sink);
    if (component == nullptr) continue;
    top.add_property(support::to_snake_case(instance), component)
        .set_aggregation(uml::AggregationKind::kComposite);
    std::unique_ptr<statechart::StateMachine> machine =
        statechart::make_random_hierarchical_machine(rng.next(), 2, 3, 4);
    input.statecharts.push_back(xmi::write_state_machine(*machine));
  }
  input.xmi = xmi::write_model(*pim);
  return input;
}

/// What one compile produced, for the checks and the digest.
struct Output {
  std::uint64_t digest = 1469598103934665603ULL;
  std::uint64_t lines = 0;
  std::uint64_t psm_elements = 0;
  std::vector<std::string> rtl;
  std::vector<std::string> cpp;
  std::unique_ptr<uml::Model> model;
  std::string written_xmi;
  bool ok = true;
  std::string problem;

  void add(const std::string& text) {
    for (const char c : text) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
    lines += support::count_nonempty_lines(text);
  }
  void fail(std::string why) {
    if (ok) problem = std::move(why);
    ok = false;
  }
};

Output compile_model(const ModelInput& input, bool keep, bool traced) {
  Output out;
  support::DiagnosticSink sink;
  std::unique_ptr<uml::Model> model;
  std::vector<std::unique_ptr<statechart::StateMachine>> machines;
  {
    spans::Scope step(spans::kXmiRead, traced);
    model = xmi::read_model(input.xmi, sink);
    for (const std::string& text : input.statecharts) {
      machines.push_back(xmi::read_state_machine(text, sink));
    }
  }
  if (model == nullptr) {
    out.fail("xmi::read_model failed: " + sink.str());
    return out;
  }
  for (const auto& machine : machines) {
    if (machine == nullptr) out.fail("xmi::read_state_machine failed: " + sink.str());
  }
  if (!out.ok) return out;
  {
    spans::Scope step(spans::kUmlValidate, traced);
    if (!uml::validate(*model, sink)) out.fail("uml::validate failed: " + sink.str());
  }
  std::optional<soc::SocProfile> profile = soc::SocProfile::find(*model);
  if (!profile.has_value()) {
    out.fail("SoC profile missing");
    return out;
  }
  {
    spans::Scope step(spans::kSocValidate, traced);
    soc::validate_soc(*model, *profile, sink);
  }
  {
    spans::Scope step(spans::kAslConstraints, traced);
    asl::ConstraintSet constraints;
    constraints.add("hw-xor-sw", uml::ElementKind::kClass,
                    "not (has_stereotype(\"HwModule\") and has_stereotype(\"SwTask\"))", sink);
    constraints.add("enums-have-literals", uml::ElementKind::kEnumeration,
                    "literal_count() > 0", sink);
    constraints.check(*model, sink);
  }
  if (sink.has_errors()) {
    out.fail("model errors: " + sink.str());
    return out;
  }

  mda::MdaResult sw;
  mda::MdaResult hw;
  {
    spans::Scope step(spans::kMdaTransform, traced);
    sw = mda::transform(*model, mda::PlatformDescription::software(), sink);
    hw = mda::transform(*model, mda::PlatformDescription::hardware(), sink);
    if (sw.psm != nullptr && hw.psm != nullptr) {
      out.psm_elements = sw.psm->element_count() + hw.psm->element_count();
    }
    step.set_arg(out.psm_elements);
  }
  if (sw.psm == nullptr || hw.psm == nullptr) {
    out.fail("mda::transform failed: " + sink.str());
    return out;
  }
  const auto emit_rtl = [&](std::string text) {
    out.add(text);
    if (keep) out.rtl.push_back(std::move(text));
  };
  const auto emit_cpp = [&](std::string text) {
    out.add(text);
    if (keep) out.cpp.push_back(std::move(text));
  };

  std::optional<soc::SocProfile> hw_profile = soc::SocProfile::find(*hw.psm);
  std::vector<uml::Class*> hw_modules;
  if (hw_profile.has_value()) {
    for (uml::Class* cls : uml::collect<uml::Class>(*hw.psm)) {
      if (cls->has_stereotype(*hw_profile->hw_module)) hw_modules.push_back(cls);
    }
  }
  {
    spans::Scope step(spans::kRtl, traced);
    for (uml::Class* cls : hw_modules) {
      emit_rtl(codegen::generate_rtl_module(*cls, *hw_profile, sink));
      emit_rtl(codegen::generate_rtl_testbench(*cls, *hw_profile, sink));
      emit_rtl(codegen::generate_rtl_top(*cls, *hw_profile, sink));
    }
    for (const auto& machine : machines) emit_rtl(codegen::generate_rtl_fsm(*machine, sink));
  }
  {
    spans::Scope step(spans::kSystemC, traced);
    for (uml::Class* cls : hw_modules) {
      emit_cpp(codegen::generate_sim_module(*cls, *hw_profile, sink));
    }
  }
  {
    spans::Scope step(spans::kSoftware, traced);
    for (uml::Class* cls : uml::collect<uml::Class>(*sw.psm)) {
      emit_cpp(codegen::generate_sw_class(*cls, sink));
    }
  }
  {
    spans::Scope step(spans::kTables, traced);
    for (std::size_t i = 0; i < machines.size(); ++i) {
      std::unique_ptr<statechart::CompiledMachine> compiled =
          statechart::compile(*machines[i], sink);
      if (compiled == nullptr) {
        out.fail("statechart::compile refused a flattenable machine");
        continue;
      }
      out.add(codegen::generate_statechart_tables(*compiled, "machine" + std::to_string(i)));
    }
  }
  {
    spans::Scope step(spans::kFlatten, traced);
    for (const auto& machine : machines) {
      if (!statechart::flatten(*machine, sink).has_value()) out.fail("flatten failed");
    }
  }
  {
    spans::Scope step(spans::kPlantUml, traced);
    out.add(codegen::to_plantuml_class_diagram(*model));
    for (const auto& machine : machines) out.add(codegen::to_plantuml_statechart(*machine));
  }
  {
    spans::Scope step(spans::kXmiWrite, traced);
    std::string written = xmi::write_model(*model);
    out.add(written);
    if (keep) out.written_xmi = std::move(written);
  }
  if (sink.has_errors()) out.fail("generation errors: " + sink.str());
  if (keep) out.model = std::move(model);
  return out;
}

/// The once-per-run checks on a kept compile.
void check_output(Output& out) {
  if (!out.ok) return;
  support::DiagnosticSink sink;
  for (const std::string& text : out.rtl) {
    if (!codegen::check_rtl_structure(text, sink)) out.fail("RTL structure: " + sink.str());
  }
  for (const std::string& text : out.cpp) {
    if (!codegen::check_cpp_structure(text, sink)) out.fail("C++ structure: " + sink.str());
  }
  std::unique_ptr<uml::Model> reread = xmi::read_model(out.written_xmi, sink);
  if (reread == nullptr || !uml::structurally_equal(*out.model, *reread, sink)) {
    out.fail("XMI round trip differs: " + sink.str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool traced = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: compile_bench --seed N --seconds S [--traced] [--out DIR]\n");
      return 2;
    }
  }

  // Set-up: the IP library and its profile, 101 times.
  // A reference round after each gives the host speed of this phase.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> setup_rounds;
  std::unique_ptr<soc::IpLibrary> library;
  for (int repeat = 0; repeat < 101; ++repeat) {
    const std::uint64_t start = spans::now_ns();
    library = std::make_unique<soc::IpLibrary>();
    library->add_standard_ips();
    setup_s.push_back(static_cast<double>(spans::now_ns() - start) * 1e-9);
    setup_rounds.push_back(perfbench::reference_round_ns());
  }
  std::sort(setup_rounds.begin(), setup_rounds.end());

  support::Rng rng(seed);
  std::vector<ModelInput> inputs;
  for (std::size_t i = 0; i < kModels; ++i) {
    inputs.push_back(make_model(*library, i, rng.next()));
  }

  std::vector<std::uint64_t> digests;
  std::uint64_t failed = 0;
  for (std::size_t m = 0; m < inputs.size(); ++m) {
    Output out = compile_model(inputs[m], /*keep=*/true, /*traced=*/false);
    check_output(out);
    if (!out.ok) {
      ++failed;
      std::fprintf(stderr, "compile: model %zu failed its checks: %s\n", m, out.problem.c_str());
    }
    digests.push_back(out.digest);
  }

  spans::reset();
  const perfbench::CpuTimes cpu_before = perfbench::cpu_times();
  std::vector<std::uint64_t> model_ns;
  std::uint64_t lines = 0, psm_elements = 0;
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t loop_start = spans::now_ns();
  // At least 200 compiles, so that ten lie beyond the 95th percentile.
  while (spans::now_ns() - loop_start < budget_ns || model_ns.size() < 200) {
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      const std::uint64_t start = spans::now_ns();
      const Output out = compile_model(inputs[m], /*keep=*/false, traced);
      model_ns.push_back(spans::now_ns() - start);
      perfbench::maybe_calibrate();
      lines += out.lines;
      psm_elements += out.psm_elements;
      if (!out.ok || out.digest != digests[m]) {
        ++failed;
        std::fprintf(stderr, "compile: model %zu %s\n", m,
                     out.ok ? "output digest changed" : out.problem.c_str());
      }
    }
  }
  const perfbench::CpuTimes cpu_after = perfbench::cpu_times();
  if (traced && !spans::write(out_dir)) {
    std::fprintf(stderr, "compile: cannot write spans to %s\n", out_dir.c_str());
    return 1;
  }

  std::printf("{\"attempted\": %zu, \"failed\": %llu, \"lines\": %llu, \"psm_elements\": %llu, "
              "\"peak_rss_kb\": %llu, \"loop_user_s\": %.6f, \"loop_sys_s\": %.6f, "
              "\"cal_round_ns\": %llu, \"setup_round_ns\": %llu, \"setup_s\": [",
              model_ns.size(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(lines),
              static_cast<unsigned long long>(psm_elements),
              static_cast<unsigned long long>(perfbench::peak_rss_kb()),
              cpu_after.user_s - cpu_before.user_s, cpu_after.sys_s - cpu_before.sys_s,
              static_cast<unsigned long long>(perfbench::median_round_ns()),
              static_cast<unsigned long long>(setup_rounds[setup_rounds.size() / 2]));
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    std::printf("%s%.9f", i == 0 ? "" : ", ", setup_s[i]);
  }
  std::printf("], \"model_ns\": [");
  for (std::size_t i = 0; i < model_ns.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ", static_cast<unsigned long long>(model_ns[i]));
  }
  std::printf("]}\n");
  return 0;
}
