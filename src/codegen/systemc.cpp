#include "codegen/systemc.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "support/strings.hpp"

namespace umlsoc::codegen {

namespace {

using support::to_hex;

const char* signal_cpp_type(const uml::Port& port) {
  if (port.width() <= 1) return "bool";
  if (port.width() <= 8) return "std::uint8_t";
  if (port.width() <= 32) return "std::uint32_t";
  return "std::uint64_t";
}

}  // namespace

std::string generate_sim_module(const uml::Class& module, const soc::SocProfile& profile,
                                support::DiagnosticSink& sink) {
  const std::string class_name = support::to_upper_camel_case(module.name());
  const std::string instance_prefix = support::to_snake_case(module.name());

  struct Reg {
    std::string name;
    std::uint64_t address;
    std::string access;
    std::string reset;
  };
  std::vector<Reg> registers;
  std::uint64_t next_free = 0;
  for (const auto& property : module.properties()) {
    if (!property->has_stereotype(*profile.hw_register)) continue;
    Reg reg;
    reg.name = support::to_snake_case(property->name());
    std::optional<std::uint64_t> address = profile.register_address(*property);
    if (!address.has_value()) {
      sink.warning(property->qualified_name(), "register address missing; auto-assigned");
      address = next_free;
    }
    reg.address = *address;
    next_free = std::max(next_free, reg.address + 4);
    reg.access = profile.register_access(*property);
    reg.reset = property->tagged_value(*profile.hw_register, "reset");
    if (reg.reset.empty()) reg.reset = "0";
    registers.push_back(std::move(reg));
  }
  std::sort(registers.begin(), registers.end(),
            [](const Reg& a, const Reg& b) { return a.address < b.address; });

  std::string out = "// Generated by umlsoc from " + module.qualified_name() + "\n";
  out += "#include <cstdint>\n#include \"sim/bus.hpp\"\n#include \"sim/signal.hpp\"\n\n";
  out += "class " + class_name + " {\n public:\n";

  // Constructor: bind every port signal to the kernel, then register the
  // evaluate() method as one kernel process (SC_METHOD-style) sensitive to
  // every non-output port — the handle API keeps re-notification
  // allocation-free.
  std::vector<std::string> sensitive_ports;
  for (const auto& port : module.ports()) {
    if (port->direction() == uml::PortDirection::kOut) continue;
    sensitive_ports.push_back(support::to_snake_case(port->name()));
  }
  out += "  explicit " + class_name + "(umlsoc::sim::Kernel& kernel)\n";
  std::vector<std::string> initializers;
  for (const auto& port : module.ports()) {
    const std::string port_name = support::to_snake_case(port->name());
    initializers.push_back(port_name + "(kernel, \"" + instance_prefix + "." + port_name +
                           "\")");
  }
  if (!initializers.empty()) {
    out += "      : " + support::join(initializers, ",\n        ") + " {\n";
  } else {
    out += "  {\n    (void)kernel;\n";
  }
  if (!sensitive_ports.empty()) {
    out += "    evaluate_process_ = kernel.register_process([this] { evaluate(); });\n";
    for (const std::string& port_name : sensitive_ports) {
      out += "    " + port_name + ".value_changed().subscribe(evaluate_process_);\n";
    }
  }
  out += "  }\n\n";

  // Ports as signals.
  for (const auto& port : module.ports()) {
    out += "  umlsoc::sim::Signal<" + std::string(signal_cpp_type(*port)) + "> " +
           support::to_snake_case(port->name()) + ";  // " +
           std::string(to_string(port->direction()));
    if (port->width() > 1) out += ", width " + std::to_string(port->width());
    out += "\n";
  }
  out += "\n";

  // Registers.
  for (const Reg& reg : registers) {
    out += "  std::uint32_t " + reg.name + " = " + reg.reset + ";  // @0x" +
           to_hex(reg.address) + " (" + reg.access + ")\n";
  }

  // Decode methods.
  out += "\n  std::uint32_t read_reg(std::uint32_t addr) const {\n    switch (addr) {\n";
  for (const Reg& reg : registers) {
    if (reg.access.find('r') == std::string::npos) continue;
    out += "      case 0x" + to_hex(reg.address) + ": return " + reg.name + ";\n";
  }
  out += "      default: return 0;\n    }\n  }\n";

  out += "\n  void write_reg(std::uint32_t addr, std::uint32_t value) {\n    switch (addr) {\n";
  for (const Reg& reg : registers) {
    if (reg.access.find('w') == std::string::npos) continue;
    out += "      case 0x" + to_hex(reg.address) + ": " + reg.name + " = value; break;\n";
  }
  out += "      default: break;\n    }\n  }\n";

  // Status-carrying decode, mirroring MemoryMappedBus / HwModuleSim
  // semantics: an unmapped or access-violating offset reports kError
  // instead of a sentinel value (a register can legitimately hold
  // all-ones), so generated code and the interpreter agree on faults.
  out += "\n  umlsoc::sim::BusStatus read_reg_checked(std::uint32_t addr,\n"
         "                                          std::uint32_t& value) const {\n"
         "    switch (addr) {\n";
  for (const Reg& reg : registers) {
    if (reg.access.find('r') == std::string::npos) continue;
    out += "      case 0x" + to_hex(reg.address) + ": value = " + reg.name +
           "; return umlsoc::sim::BusStatus::kOk;\n";
  }
  out += "      default: value = 0; return umlsoc::sim::BusStatus::kError;\n    }\n  }\n";

  out += "\n  umlsoc::sim::BusStatus write_reg_checked(std::uint32_t addr, std::uint32_t value) {\n"
         "    switch (addr) {\n";
  for (const Reg& reg : registers) {
    if (reg.access.find('w') == std::string::npos) continue;
    out += "      case 0x" + to_hex(reg.address) + ": " + reg.name +
           " = value; return umlsoc::sim::BusStatus::kOk;\n";
  }
  out += "      default: return umlsoc::sim::BusStatus::kError;\n    }\n  }\n";

  out += "\n  void reset() {\n";
  for (const Reg& reg : registers) {
    out += "    " + reg.name + " = " + reg.reset + ";\n";
  }
  out += "  }\n";

  // Evaluate hook: runs once per delta whenever a sensitive port commits a
  // new value (delta-collapsed by the kernel). Behavior models extend it.
  out += "\n  void evaluate() {\n    // Sensitivity: " +
         (sensitive_ports.empty() ? std::string("none")
                                  : support::join(sensitive_ports, ", ")) +
         ". Attach behavior here or via HwModuleSim.\n  }\n";
  out += "\n private:\n  umlsoc::sim::ProcessId evaluate_process_ = umlsoc::sim::kInvalidProcess;\n";
  out += "};\n";
  return out;
}

bool check_cpp_structure(const std::string& text, support::DiagnosticSink& sink) {
  const std::size_t errors_before = sink.error_count();
  long braces = 0;
  long parens = 0;
  bool in_string = false;
  bool in_line_comment = false;
  char previous = '\0';
  for (char c : text) {
    if (in_line_comment) {
      if (c == '\n') in_line_comment = false;
    } else if (in_string) {
      if (c == '"' && previous != '\\') in_string = false;
    } else {
      if (c == '/' && previous == '/') in_line_comment = true;
      if (c == '"') in_string = true;
      if (c == '{') ++braces;
      if (c == '}') --braces;
      if (c == '(') ++parens;
      if (c == ')') --parens;
    }
    previous = c;
  }
  if (braces != 0) sink.error("cpp", "unbalanced braces (" + std::to_string(braces) + ")");
  if (parens != 0) sink.error("cpp", "unbalanced parentheses (" + std::to_string(parens) + ")");
  if (text.find("class ") == std::string::npos) {
    sink.error("cpp", "no class declaration found");
  }
  return sink.error_count() == errors_before;
}

}  // namespace umlsoc::codegen
