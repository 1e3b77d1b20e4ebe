// UART SoC flow: instantiate the Uart IP from the library, run the MDA
// hardware mapping, generate RTL + SystemC-style C++, then execute the
// design: a runtime hardware model mapped on the simulated bus, driven by
// ASL driver code (exactly what the software mapping generates).
//
// Then re-runs the driver under an adversarial bus (seeded fault plan
// dropping responses) to show the resilience layer: timeouts retry with
// backoff, a watchdog supervises progress, and the driver's health
// statechart walks through its declared error/recovery states.
//
// Demonstrates checkpoint/restore and deterministic replay: the
// adversarial run is checkpointed mid-flight, restored into a freshly
// constructed setup (as a restarted process would), continued to the end,
// and shown to be bit-identical to an uninterrupted reference — final
// state and complete event sequence. A deliberately perturbed restore and
// a corrupted snapshot show divergence detection and rejection. Any
// mismatch exits nonzero, so CI runs this binary as the snapshot smoke
// test.
//
// Closes with the supervision demo: the CPU streams bytes to the UART over
// a DMA channel guarded by a CircuitBreaker. A deterministic burst of bus
// errors opens the breaker, the HealthRegistry flags the channel degraded
// and traffic falls back to a PIO port; after the open duration a half-open
// probe succeeds and DMA is restored. A watchdog starvation trip then
// drives a supervised warm restart of the link statechart (from a restart
// snapshot) and re-arms the dog. Every supervision signal lands in the
// UartLink statechart's error channel, which must absorb all of them.
//
// With --chaos-soak[=N] the binary instead runs the chaos-soak workload of
// src/soak/soak.hpp — that supervision loop under a seeded 1% error + 1%
// drop fault plan, one isolated rig pipeline per seed — over N seeds
// (default 16), sharded across worker threads by the fleet engine
// (--jobs=M; default 1, 0 = one per core). The run ends with the fleet SLO
// rollup (availability, delivery/timeout rates, restarts, rollbacks,
// checkpoint overhead, lost-work bounds). Failing seeds are listed so CI
// logs pinpoint the reproduction, and their scratch (checkpoint ladders,
// event logs) is copied to ./chaos-soak-failure/ for CI artifact upload.
//
// With --check-properties the binary instead runs the explicit-state
// verification engine on the driver-supervision statecharts: a seeded
// notification bug is found by exhaustive exploration, its counterexample
// is replayed through the real interpreter under the replay verifier and
// rendered as a PlantUML sequence diagram, and the fixed model verifies
// clean. `--check-properties=buggy` exits nonzero exactly when the bug is
// caught end-to-end; `--check-properties=fixed` exits zero exactly when
// the fixed model is exhaustively verified — CI runs both as the
// verification smoke test.
//
// --engine=compiled|interpreted picks the statechart engine both modes run
// on: the AOT-compiled plan-table stepper (default) or the reference
// interpreter. Snapshots are engine-interchangeable, so the soak's
// checkpoint/restore/replay pipeline is exercised end-to-end either way.
//
// --isolation=thread|process picks how the fleet shards seeds: worker
// threads (default) or supervised forked workers (fleet/procpool.hpp). A
// worker that dies (SIGKILL, nonzero exit, heartbeat silence, or a seed
// hung past --worker-timeout seconds) is reaped and respawned and its seed
// re-dispatched — resuming from the seed's on-disk handoff ladder — so the
// rollup is bit-identical to an in-process run. --kill-workers=N makes the
// supervisor SIGKILL N random busy workers mid-run (the CI chaos gate).
// --fault-templates=K sweeps K fault-plan templates (error/drop/crash-rate
// variations) across the fleet by rig index; the rollup then breaks the
// SLOs down per template.
//
//   $ ./example_uart_soc
//   $ ./example_uart_soc --chaos-soak
//   $ ./example_uart_soc --chaos-soak=256 --jobs=$(nproc)
//   $ ./example_uart_soc --chaos-soak=64 --isolation=process --kill-workers=2
//   $ ./example_uart_soc --chaos-soak=64 --fault-templates=4
//   $ ./example_uart_soc --chaos-soak=4 --engine=interpreted
//   $ ./example_uart_soc --check-properties
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <system_error>

#include "codegen/plantuml.hpp"
#include "codegen/rtl.hpp"
#include "codegen/swruntime.hpp"
#include "codegen/systemc.hpp"
#include "fleet/driver.hpp"
#include "fleet/report.hpp"
#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "soak/soak.hpp"
#include "support/strings.hpp"
#include "verify/counterexample.hpp"
#include "verify/explore.hpp"

using namespace umlsoc;

namespace {

/// One complete adversarial setup — kernel, faulty bus, UART model, health
/// statechart instance, supervised driver, watchdog, event recorder. Every
/// instance runs the identical construction sequence, so ProcessIds and
/// statechart indices are stable across instances: exactly the property
/// snapshot restore relies on ("same setup, different process").
struct ReplayRig {
  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  codegen::HwModuleSim uart;
  sim::FaultPlan plan;
  statechart::StateMachineInstance health;
  codegen::BusMasterContext driver;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  sim::ProcessId perturb = sim::kInvalidProcess;

  static sim::RetryPolicy retry_policy() {
    sim::RetryPolicy policy;
    policy.timeout = sim::SimTime::ns(40);
    policy.max_attempts = 4;
    return policy;
  }

  ReplayRig(const soak::ModelBundle& bundle, const statechart::StateMachine& health_machine,
            support::DiagnosticSink& sink)
      : bus(kernel, "axi-faulty", sim::SimTime::ns(8)),
        uart(*bundle.psm_uart, *bundle.psm_profile, sink),
        plan(/*seed=*/42),
        health(health_machine),
        driver(kernel, bus, retry_policy()),
        watchdog(kernel, "driver-watchdog", sim::SimTime::us(10)) {
    uart.map_onto(bus, bundle.base);
    sim::FaultPlan::SiteConfig adversarial;
    adversarial.drop_rate = 0.25;  // 1 in 4 writes hangs: no response, ever.
    plan.configure(sim::FaultSite::kBusWrite, adversarial);
    bus.install_fault_plan(&plan);
    health.set_trace_enabled(false);
    health.start();
    driver.set_error_sink(&health);
    driver.set_attribute("base", asl::Value{static_cast<std::int64_t>(bundle.base)});
    perturb = kernel.register_process([] {}, "demo.perturb");
    kernel.set_recorder(&recorder);
  }

  [[nodiscard]] replay::SnapshotTargets targets() {
    replay::SnapshotTargets out;
    out.kernel = &kernel;
    out.fault_plan = &plan;
    out.recorder = &recorder;
    out.machines.push_back({"health", &health});
    out.buses.push_back({"axi-faulty", &bus});
    out.watchdogs.push_back({"driver-watchdog", &watchdog});
    out.banks.push_back(soak::module_bank("uart", uart));
    out.banks.push_back(soak::port_stats_bank("port", driver.port()));
    return out;
  }
};

constexpr const char* kPhase1 = "bus_write(self.base + 12, 434);";
constexpr const char* kPhase2 =
    "i := 0;"
    "while (i < 4) {"
    "  bus_write(self.base + 0, 65 + i);"
    "  i := i + 1;"
    "}";

/// The interactive demo: deterministic DMA error burst -> breaker opens ->
/// PIO fallback -> half-open probe restores DMA; then a watchdog
/// starvation trip -> supervised warm restart -> re-armed dog.
int run_degraded_demo(const soak::ModelBundle& bundle, soak::EngineChoice engine,
                      support::DiagnosticSink& sink) {
  std::printf("\n--- degraded mode: breaker-guarded DMA, PIO fallback, supervision ---\n");
  // Exactly the first four DMA writes error, then clean.
  const soak::TrafficFaults faults{.error_rate = 1.0, .max_faults = 4};
  soak::DegradedRig rig({*bundle.psm_uart, *bundle.psm_profile, *bundle.link_program,
                         bundle.base, faults, /*seed=*/7, sink, engine});
  rig.health.add_listener([&rig](sim::HealthRegistry::UnitId unit, sim::UnitHealth from,
                                 sim::UnitHealth to, std::string_view reason) {
    std::printf("  [%s] %s: %s -> %s (%.*s)\n", rig.kernel.now().str().c_str(),
                rig.health.unit_name(unit).c_str(),
                std::string(sim::to_string(from)).c_str(),
                std::string(sim::to_string(to)).c_str(), static_cast<int>(reason.size()),
                reason.data());
  });

  if (!soak::run_phase(rig, 4)) return 1;
  if (rig.breaker.state() != sim::CircuitBreaker::State::kOpen) {
    std::printf("breaker did not open after the error burst (state=%s)\n",
                std::string(sim::to_string(rig.breaker.state())).c_str());
    return 1;
  }
  std::printf("breaker '%s' open after %llu DMA failures; link state: %s\n",
              rig.breaker.name().c_str(),
              static_cast<unsigned long long>(rig.breaker.stats().failures),
              rig.link->is_in("Fallback") ? "Fallback" : "?");

  if (!soak::run_phase(rig, 8)) return 1;
  if (rig.via_pio == 0) {
    std::printf("no byte fell back to PIO while the breaker was open\n");
    return 1;
  }
  if (!soak::run_recovery_tail(rig)) return 1;
  if (rig.breaker.state() != sim::CircuitBreaker::State::kClosed ||
      !rig.link->is_in("Normal") || rig.breaker.stats().probes == 0) {
    std::printf("recovery incomplete: breaker=%s probes=%llu link-normal=%d\n",
                std::string(sim::to_string(rig.breaker.state())).c_str(),
                static_cast<unsigned long long>(rig.breaker.stats().probes),
                rig.link->is_in("Normal") ? 1 : 0);
    return 1;
  }
  std::printf("half-open probe restored DMA: %llu via dma, %llu via pio, %llu lost\n",
              static_cast<unsigned long long>(rig.via_dma),
              static_cast<unsigned long long>(rig.via_pio),
              static_cast<unsigned long long>(rig.lost));

  // Watchdog leg: traffic stops, the dog starves and trips, the supervisor
  // warm-restarts the link and re-arms the dog.
  const std::uint64_t restarts_before = rig.sup.child_stats(rig.link_child).restarts;
  rig.kernel.run(rig.kernel.now() + sim::SimTime::us(51));
  if (rig.watchdog.trips() != 1 ||
      rig.sup.child_stats(rig.link_child).restarts != restarts_before + 1 ||
      !rig.watchdog.armed()) {
    std::printf("watchdog recovery failed: trips=%llu restarts=%llu armed=%d\n",
                static_cast<unsigned long long>(rig.watchdog.trips()),
                static_cast<unsigned long long>(
                    rig.sup.child_stats(rig.link_child).restarts),
                rig.watchdog.armed() ? 1 : 0);
    return 1;
  }
  std::printf("watchdog trip -> supervised warm restart -> re-armed (trips=1)\n");
  soak::finish_run(rig);

  if (const std::string problem = soak::end_state_problem(rig, "demo"); !problem.empty()) {
    std::printf("end-state check failed: %s\n", problem.c_str());
    return 1;
  }
  std::printf("supervision: %s; health: %s; breaker opens=%llu closes=%llu "
              "fast-failed=%llu\n",
              rig.sup.str().c_str(), rig.health.str().c_str(),
              static_cast<unsigned long long>(rig.breaker.stats().opens),
              static_cast<unsigned long long>(rig.breaker.stats().closes),
              static_cast<unsigned long long>(rig.breaker.stats().fast_failed));
  return 0;
}

/// --chaos-soak[=N] --jobs=M: the supervision loop under seeded traffic
/// faults, N seeds sharded across M fleet workers (threads by default,
/// supervised processes with --isolation=process). Per-seed results are
/// bit-identical across job counts and isolation modes (each seed's rig
/// pipeline is fully isolated), so failures reproduce with
/// `--chaos-soak=1` and the seed hardcoded no matter how the fleet was
/// sharded. Prints every failing seed plus the fleet SLO rollup.
int run_chaos_soak(const soak::ModelBundle& bundle, soak::EngineChoice engine,
                   std::uint32_t seed_count, const fleet::FleetConfig& config) {
  std::printf("chaos soak: %u seeds across %u fleet worker(s), %u fault template(s), "
              "seeded error/drop traffic faults, 20%%/20%%/20%% torn/lost/bit-flipped "
              "checkpoints, mid-run crash + coordinator recovery, %s link engine\n",
              seed_count, fleet::FleetDriver::resolve_jobs(config.jobs),
              config.fault_templates, soak::to_string(engine));
  if (config.isolation == fleet::Isolation::kProcess) {
    std::printf("  process isolation: supervised worker pool, heartbeat deadline 5s, "
                "seed watchdog %us%s\n",
                config.seed_timeout_ms / 1000u,
                config.chaos_kill_workers > 0 ? " — chaos worker kills armed" : "");
  }

  fleet::FleetDriver driver(config);
  // The progress hook is serialized by the driver; lines arrive in
  // completion order (worker interleaving), so they carry the seed. The
  // deterministic per-seed story is the result vector, not the log.
  const bool verbose = seed_count <= 32;
  driver.set_progress([&](const fleet::RigJob& job, const fleet::RigOutcome& outcome,
                          std::uint64_t done, std::uint64_t total) {
    if (!outcome.ok) {
      std::printf("  seed %llu: FAILED (%s)\n",
                  static_cast<unsigned long long>(job.seed), outcome.failure.c_str());
    } else if (verbose) {
      std::printf("  seed %llu: ok\n", static_cast<unsigned long long>(job.seed));
    } else if (done % 64 == 0 || done == total) {
      std::printf("  %llu/%llu rigs complete\n", static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total));
    }
  });
  const fleet::FleetReport report =
      fleet::FleetReport::aggregate(soak::run_soak(driver, bundle, engine, seed_count));
  for (std::uint64_t seed : report.failed_seeds) {
    std::printf("  seed %llu: ladder + event logs preserved in %s\n",
                static_cast<unsigned long long>(seed), soak::failure_dir(seed).string().c_str());
  }

  if (report.rigs_failed != 0) {
    std::printf("chaos soak FAILED for %llu seed(s):",
                static_cast<unsigned long long>(report.rigs_failed));
    for (std::uint64_t seed : report.failed_seeds) {
      std::printf(" %llu", static_cast<unsigned long long>(seed));
    }
    std::printf("\n%s", report.str(&driver.stats()).c_str());
    return 1;
  }
  std::printf("chaos soak: all %u seeds recovered and replayed bit-identically\n",
              seed_count);
  std::printf("%s", report.str(&driver.stats()).c_str());
  return 0;
}

// --- Explicit-state verification demo -----------------------------------------
//
// The supervision pair under check: a Driver health machine (richer than
// the demo's — bounded retries before declaring failure) and a BusMonitor
// that must raise an alarm whenever the driver fails. The driver notifies
// the monitor by cross-posting "driver_failed" from its effects; the
// seeded bug omits that notification on exactly one path to Failed (retry
// exhaustion), so the system can silently die — which the invariant
// "monitor-alarm-on-failure" catches.

/// Holds the machines plus a late-bound slot for the monitor instance:
/// effects are authored before instances exist, so they post through the
/// slot filled in by run_check_properties.
struct CheckModels {
  statechart::StateMachine driver{"Driver"};
  statechart::StateMachine monitor{"BusMonitor"};
  statechart::Engine* monitor_instance = nullptr;
};

void build_check_models(CheckModels& models, bool seeded_bug) {
  auto set_retries = [](std::int64_t value) {
    return [value](statechart::ActionContext& context) {
      context.instance.set_variable("retries", value);
    };
  };
  auto notify_monitor = [&models](statechart::ActionContext&) {
    if (models.monitor_instance != nullptr) {
      models.monitor_instance->post(statechart::Event("driver_failed"));
    }
  };

  statechart::Region& top = models.driver.top();
  statechart::State& operational = top.add_state("Operational");
  statechart::State& degraded = top.add_state("Degraded");
  statechart::State& failed = top.add_state("Failed");
  top.add_transition(top.add_initial(), operational)
      .set_effect("retries := 0", set_retries(0));
  top.add_transition(operational, degraded)
      .set_trigger("bus_timeout")
      .set_effect("retries := 0", set_retries(0));
  top.add_transition(degraded, degraded)
      .set_trigger("bus_timeout")
      .set_internal(true)
      .set_guard("retries < 3",
                 [](const statechart::ActionContext& context) {
                   return context.instance.variable("retries") < 3;
                 })
      .set_effect("retries := retries + 1", [](statechart::ActionContext& context) {
        context.instance.set_variable("retries",
                                      context.instance.variable("retries") + 1);
      });
  statechart::Transition& exhausted = top.add_transition(degraded, failed)
                                          .set_trigger("bus_timeout")
                                          .set_guard("retries >= 3",
                                                     [](const statechart::ActionContext& context) {
                                                       return context.instance.variable(
                                                                  "retries") >= 3;
                                                     });
  // The seeded defect: retry exhaustion reaches Failed without telling the
  // monitor. Both hard-failure paths below notify in either variant.
  if (!seeded_bug) exhausted.set_effect("notify monitor", notify_monitor);
  top.add_transition(operational, failed)
      .set_trigger("bus_failed")
      .set_effect("notify monitor", notify_monitor);
  top.add_transition(degraded, failed)
      .set_trigger("bus_failed")
      .set_effect("notify monitor", notify_monitor);
  top.add_transition(degraded, operational)
      .set_trigger("bus_recovered")
      .set_effect("retries := 0", set_retries(0));
  // Failed is terminal: absorb further fault reports so they do not count
  // as unhandled errors.
  top.add_transition(failed, failed).set_trigger("bus_timeout").set_internal(true);
  top.add_transition(failed, failed).set_trigger("bus_failed").set_internal(true);

  statechart::Region& mtop = models.monitor.top();
  statechart::State& watching = mtop.add_state("Watching");
  statechart::State& alarmed = mtop.add_state("Alarmed");
  mtop.add_transition(mtop.add_initial(), watching);
  mtop.add_transition(watching, alarmed).set_trigger("driver_failed");
  mtop.add_transition(alarmed, alarmed).set_trigger("driver_failed").set_internal(true);
}

/// One full verification pass over the chosen model variant. For the buggy
/// variant the violation must reproduce end-to-end (replay + diagram);
/// returns 0 on the *expected* outcome of each variant.
int run_check_variant(bool seeded_bug, soak::EngineChoice engine, support::DiagnosticSink& sink) {
  CheckModels models;
  build_check_models(models, seeded_bug);
  const std::unique_ptr<statechart::Engine> driver = soak::make_engine(models.driver, engine);
  const std::unique_ptr<statechart::Engine> monitor = soak::make_engine(models.monitor, engine);
  models.monitor_instance = monitor.get();
  driver->set_trace_enabled(false);
  monitor->set_trace_enabled(false);
  driver->start();
  monitor->start();

  verify::Network network;
  network.add_instance("Driver", *driver);
  network.add_instance("Monitor", *monitor);
  network.add_choice("Driver", statechart::Event("bus_timeout"), /*is_error=*/true);
  network.add_choice("Driver", statechart::Event("bus_failed"), /*is_error=*/true);
  network.add_choice("Driver", statechart::Event("bus_recovered"));

  std::vector<verify::Property> properties;
  properties.push_back(verify::Property::invariant(
      "monitor-alarm-on-failure", [](const verify::PropertyContext& context) {
        const statechart::Engine* checked_driver = context.network.find("Driver");
        const statechart::Engine* checked_monitor = context.network.find("Monitor");
        return !(checked_driver->is_in("Failed") && checked_monitor->is_in("Watching"));
      }));
  properties.push_back(verify::Property::invariant(
      "retries-bounded", [](const verify::PropertyContext& context) {
        return context.network.find("Driver")->variable("retries") <= 3;
      }));
  properties.push_back(verify::Property::no_unhandled_errors());
  properties.push_back(verify::Property::deadlock_free(
      // Every reachable state keeps all alphabet entries enabled somewhere,
      // so plain reachability of a quiescent state is already a violation.
      [](const verify::PropertyContext&) { return false; }));

  const char* variant = seeded_bug ? "seeded-bug" : "fixed";
  std::printf("[%s] engines: driver=%s monitor=%s\n", variant, soak::to_string(engine),
              soak::to_string(engine));
  verify::ExploreResult result = verify::explore(network, properties, {}, &sink);
  std::printf("[%s] exploration: %s; %s\n", variant,
              std::string(verify::to_string(result.termination)).c_str(),
              result.stats.str().c_str());

  if (!seeded_bug) {
    if (!result.verified()) {
      std::printf("[fixed] expected a clean exhaustive pass, got %zu violation(s)\n",
                  result.violations.size());
      for (const verify::Violation& violation : result.violations) {
        std::printf("  %s: %s\n", violation.property.c_str(), violation.message.c_str());
      }
      return 1;
    }
    std::printf("[fixed] all %zu properties verified over the full state space\n",
                properties.size());
    return 0;
  }

  if (result.violations.empty()) {
    std::printf("[seeded-bug] exploration missed the seeded violation\n");
    return 1;
  }
  const verify::Violation& violation = result.violations.front();
  std::printf("[seeded-bug] %s: %s\n", violation.property.c_str(),
              violation.message.c_str());
  std::printf("[seeded-bug] counterexample (%zu steps):\n", violation.path.size());
  for (const verify::EventChoice& choice : violation.path) {
    std::printf("  %s\n", network.label(choice).c_str());
  }

  verify::ReplayReport replay = verify::replay_counterexample(
      network, result.initial, violation, properties, sink);
  std::printf("[seeded-bug] %s\n", replay.str().c_str());
  if (!replay.ok()) return 1;

  std::unique_ptr<interaction::Interaction> scenario =
      verify::counterexample_interaction(network, violation);
  if (scenario == nullptr) {
    std::printf("[seeded-bug] counterexample did not convert to an interaction\n");
    return 1;
  }
  std::string diagram = codegen::to_plantuml_sequence(*scenario);
  std::printf("[seeded-bug] failing scenario as PlantUML:\n%s", diagram.c_str());
  if (diagram.find("@startuml") == std::string::npos ||
      diagram.find("Driver") == std::string::npos) {
    std::printf("[seeded-bug] PlantUML rendering looks wrong\n");
    return 1;
  }
  return 0;
}

/// --check-properties[=buggy|=fixed]. Exit status encodes the *outcome*:
/// "buggy" exits nonzero when the seeded bug is caught end-to-end (the
/// smoke test asserts failure), "fixed" exits zero when the repaired model
/// verifies clean, and the bare flag demands both in one run.
int run_check_properties(const char* mode, soak::EngineChoice engine) {
  support::DiagnosticSink sink;
  int status = 0;
  if (std::strcmp(mode, "buggy") == 0) {
    status = run_check_variant(/*seeded_bug=*/true, engine, sink) == 0 ? 1 : 0;
  } else if (std::strcmp(mode, "fixed") == 0) {
    status = run_check_variant(/*seeded_bug=*/false, engine, sink);
  } else {
    status = run_check_variant(/*seeded_bug=*/true, engine, sink);
    if (status == 0) status = run_check_variant(/*seeded_bug=*/false, engine, sink);
  }
  if (sink.has_errors()) {
    std::fputs(sink.str().c_str(), stderr);
    if (status == 0) status = 1;
  }
  return status;
}

/// Strict unsigned decimal in [min, max]: digits only, no sign, no
/// whitespace, no trailing characters.
bool parse_count(const char* text, std::uint32_t min, std::uint32_t max,
                 std::uint32_t& out) {
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, out);
  return error == std::errc() && stop == end && out >= min && out <= max;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t soak_seeds = 0;
  std::uint32_t worker_timeout_s = 120;  // Per-seed watchdog (process isolation).
  fleet::FleetConfig fleet_config;
  fleet_config.jobs = 1;  // Serial by default; --jobs=0 = one per core.
  soak::EngineChoice engine = soak::EngineChoice::kCompiled;
  const char* check_mode = nullptr;
  const struct {
    const char* prefix;
    std::uint32_t min;
    std::uint32_t max;
    std::uint32_t* target;
  } numeric_flags[] = {
      {"--chaos-soak=", 1, 1u << 20, &soak_seeds},
      {"--jobs=", 0, 4096, &fleet_config.jobs},
      {"--worker-timeout=", 1, 86400, &worker_timeout_s},
      {"--kill-workers=", 0, 1024, &fleet_config.chaos_kill_workers},
      {"--fault-templates=", 1, soak::kSoakTemplateCount, &fleet_config.fault_templates},
  };
  // Flags apply whatever their order; a mode runs once all are read.
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto numeric =
        std::find_if(std::begin(numeric_flags), std::end(numeric_flags), [arg](const auto& flag) {
          return std::strncmp(arg, flag.prefix, std::strlen(flag.prefix)) == 0;
        });
    if (numeric != std::end(numeric_flags)) {
      const char* value = arg + std::strlen(numeric->prefix);
      if (parse_count(value, numeric->min, numeric->max, *numeric->target)) continue;
      std::fprintf(stderr, "invalid value in '%s' (expected %u..%u)\n", arg, numeric->min,
                   numeric->max);
      return 2;
    }
    if (std::strcmp(arg, "--chaos-soak") == 0) {
      soak_seeds = 16;
    } else if (std::strcmp(arg, "--check-properties") == 0) {
      check_mode = "";
    } else if (std::strncmp(arg, "--check-properties=", 19) == 0) {
      check_mode = arg + 19;
    } else if (std::strcmp(arg, "--engine=compiled") == 0) {
      engine = soak::EngineChoice::kCompiled;
    } else if (std::strcmp(arg, "--engine=interpreted") == 0) {
      engine = soak::EngineChoice::kInterpreted;
    } else if (std::strcmp(arg, "--isolation=thread") == 0) {
      fleet_config.isolation = fleet::Isolation::kThread;
    } else if (std::strcmp(arg, "--isolation=process") == 0) {
      fleet_config.isolation = fleet::Isolation::kProcess;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return 2;
    }
  }
  if (check_mode != nullptr) return run_check_properties(check_mode, engine);

  support::DiagnosticSink sink;
  soak::ModelBundle bundle;
  if (!soak::build_model_bundle(bundle, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  if (soak_seeds > 0) {
    fleet_config.seed_timeout_ms = worker_timeout_s * 1000u;
    return run_chaos_soak(bundle, engine, soak_seeds, fleet_config);
  }
  // The demo flow shows the memory map and the generated RTL.
  std::printf("memory map:\n");
  for (const mda::MemoryWindow& window : bundle.hw->memory_map) {
    std::printf("  %-24s base=0x%llx span=0x%llx\n", window.module.c_str(),
                static_cast<unsigned long long>(window.base),
                static_cast<unsigned long long>(window.span));
  }
  std::string rtl = codegen::generate_rtl_module(*bundle.psm_uart, *bundle.psm_profile, sink);
  std::string sysc = codegen::generate_sim_module(*bundle.psm_uart, *bundle.psm_profile, sink);
  std::printf("\n--- generated RTL (%zu lines) ---\n%s", support::count_nonempty_lines(rtl),
              rtl.c_str());
  std::printf("\n--- generated SystemC-style C++ (%zu lines, not shown) ---\n",
              support::count_nonempty_lines(sysc));

  // 4. Execute: HW model on the bus, ASL driver writing registers.
  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(8));
  codegen::HwModuleSim uart_sim(*bundle.psm_uart, *bundle.psm_profile, sink);
  const std::uint64_t base = bundle.base;
  uart_sim.map_onto(bus, base);

  codegen::BusMasterContext driver(kernel, bus);
  driver.set_attribute("base", asl::Value{static_cast<std::int64_t>(base)});
  driver.run(
      "bus_write(self.base + 12, 434);"       // divisor = 50MHz/115200.
      "i := 0;"
      "while (i < 4) {"
      "  bus_write(self.base + 0, 65 + i);"   // tx_data = 'A'+i.
      "  i := i + 1;"
      "}");
  auto divisor = driver.run("return bus_read(self.base + 12);");

  std::printf("\nafter driver run: divisor=%lld tx_data=%llu (last byte)\n",
              static_cast<long long>(divisor.value().as_int()),
              static_cast<unsigned long long>(uart_sim.peek("tx_data")));
  std::printf("bus: %llu writes, %llu reads, sim time %s\n",
              static_cast<unsigned long long>(bus.writes()),
              static_cast<unsigned long long>(bus.reads()), kernel.now().str().c_str());

  // 5. Resilience: same driver, adversarial bus. A seeded fault plan drops
  // device responses (hung slave); the driver's BusMasterPort times out and
  // retries with backoff, a watchdog supervises overall progress, and a
  // DriverHealth statechart tracks error/recovery via the error channel.
  statechart::StateMachine health("DriverHealth");
  statechart::Region& htop = health.top();
  statechart::State& operational = htop.add_state("Operational");
  statechart::State& degraded = htop.add_state("Degraded");
  statechart::State& dead = htop.add_state("Failed");
  htop.add_transition(htop.add_initial(), operational);
  htop.add_transition(operational, degraded).set_trigger("bus_timeout");
  htop.add_transition(degraded, operational).set_trigger("bus_recovered");
  htop.add_transition(degraded, dead).set_trigger("bus_failed");

  ReplayRig reference(bundle, health, sink);
  reference.watchdog.arm();
  reference.driver.run(kPhase1);
  reference.driver.run(kPhase2);
  reference.watchdog.disarm();

  const sim::BusMasterPort::Stats& port_stats = reference.driver.port().stats();
  std::printf("\nfaulty rerun: %llu transactions, %llu timeouts, %llu retries, "
              "%llu recovered, %llu exhausted\n",
              static_cast<unsigned long long>(port_stats.transactions),
              static_cast<unsigned long long>(port_stats.timeouts),
              static_cast<unsigned long long>(port_stats.retries),
              static_cast<unsigned long long>(port_stats.recovered),
              static_cast<unsigned long long>(port_stats.exhausted));
  std::printf("fault plan: %s\n", reference.plan.str().c_str());
  std::printf("driver health: %s (errors raised %llu), watchdog trips %llu, "
              "divisor=%llu\n",
              reference.health.active_leaf_names().empty()
                  ? "?"
                  : reference.health.active_leaf_names().front().c_str(),
              static_cast<unsigned long long>(reference.health.errors_raised()),
              static_cast<unsigned long long>(reference.watchdog.trips()),
              static_cast<unsigned long long>(reference.uart.peek("divisor")));

  // 6. Checkpoint + deterministic replay. The reference above ran to the
  // end uninterrupted with its event recorder on. Now: an identical rig is
  // checkpointed between driver phases, the snapshot is restored into a
  // third freshly constructed rig (what a restarted process would do), and
  // that rig finishes the run. Final state and the complete event sequence
  // must match the reference exactly.
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  ReplayRig checkpointed(bundle, health, sink);
  checkpointed.watchdog.arm();
  checkpointed.driver.run(kPhase1);
  std::string snapshot;
  if (!replay::save_snapshot(checkpointed.targets(), snapshot, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }

  ReplayRig restored(bundle, health, sink);
  if (!replay::restore_snapshot(restored.targets(), snapshot, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  restored.driver.run(kPhase2);
  restored.watchdog.disarm();

  const auto mismatch =
      sim::first_divergence(reference_log, restored.recorder.log(), &restored.kernel);
  const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>> state_checks[] = {
      {"sim-time", {reference.kernel.now().picoseconds(),
                    restored.kernel.now().picoseconds()}},
      {"events-processed",
       {reference.kernel.events_processed(), restored.kernel.events_processed()}},
      {"divisor", {reference.uart.peek("divisor"), restored.uart.peek("divisor")}},
      {"tx_data", {reference.uart.peek("tx_data"), restored.uart.peek("tx_data")}},
      {"port-timeouts",
       {port_stats.timeouts, restored.driver.port().stats().timeouts}},
      {"port-retries", {port_stats.retries, restored.driver.port().stats().retries}},
      {"health-errors",
       {reference.health.errors_raised(), restored.health.errors_raised()}},
  };
  bool state_matches =
      restored.health.active_leaf_names() == reference.health.active_leaf_names() &&
      restored.plan.str() == reference.plan.str();
  if (!state_matches) std::printf("replay state mismatch: health/fault-plan summary\n");
  for (const auto& [label, values] : state_checks) {
    if (values.first != values.second) {
      std::printf("replay state mismatch: %s reference=%llu restored=%llu\n", label,
                  static_cast<unsigned long long>(values.first),
                  static_cast<unsigned long long>(values.second));
      state_matches = false;
    }
  }
  std::printf("\ncheckpoint: %zu-byte snapshot at %s; restored run replayed %llu/%llu "
              "events\n",
              snapshot.size(), checkpointed.kernel.now().str().c_str(),
              static_cast<unsigned long long>(restored.recorder.total_events()),
              static_cast<unsigned long long>(reference.recorder.total_events()));
  if (mismatch.has_value() || !state_matches) {
    std::printf("replay MISMATCH: %s\n",
                mismatch.has_value() ? mismatch->str().c_str() : "final state differs");
    return 1;
  }
  std::printf("replay: restored run is bit-identical to the uninterrupted reference\n");

  // Divergence detection: restore the same snapshot again, switch the
  // recorder to verify mode against the reference log, and inject one event
  // the reference never had. The verifier must latch it.
  ReplayRig perturbed(bundle, health, sink);
  if (!replay::restore_snapshot(perturbed.targets(), snapshot, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  perturbed.recorder.begin_verify(reference_log, perturbed.recorder.total_events());
  perturbed.kernel.schedule(sim::SimTime::ns(1), perturbed.perturb);
  perturbed.driver.run(kPhase2);
  perturbed.watchdog.disarm();
  if (!perturbed.recorder.divergence().has_value()) {
    std::printf("replay verify FAILED to flag an injected divergence\n");
    return 1;
  }
  std::printf("divergence detection: %s\n",
              perturbed.recorder.divergence()->str().c_str());

  // Corruption rejection: a flipped byte must fail the checksum, loudly.
  // The byte before the trailer is the last byte of the last section.
  std::string corrupted = snapshot;
  corrupted[corrupted.size() - replay::kBinaryTrailer.size() - 1] ^= 0x01;
  support::DiagnosticSink corrupt_sink;
  ReplayRig victim(bundle, health, sink);
  if (replay::restore_snapshot(victim.targets(), corrupted, corrupt_sink)) {
    std::printf("corrupted snapshot was NOT rejected\n");
    return 1;
  }
  std::printf("corruption rejection: %s\n",
              corrupt_sink.diagnostics().empty()
                  ? "?"
                  : corrupt_sink.diagnostics().front().str().c_str());

  // 7. Supervision demo: breaker-guarded DMA with PIO fallback, watchdog
  // trip -> supervised warm restart.
  if (int status = run_degraded_demo(bundle, engine, sink); status != 0) {
    return status;
  }

  if (sink.has_errors()) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  return 0;
}
