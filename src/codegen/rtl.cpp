#include "codegen/rtl.hpp"

#include <algorithm>
#include <cctype>
#include <set>

#include "statechart/flatten.hpp"
#include "support/strings.hpp"

namespace umlsoc::codegen {

namespace {

using support::to_hex;

std::string range_of(int width) {
  if (width <= 1) return "       ";
  std::string range = "[" + std::to_string(width - 1) + ":0]";
  while (range.size() < 7) range += ' ';
  return range;
}

std::string direction_keyword(uml::PortDirection direction) {
  switch (direction) {
    case uml::PortDirection::kIn:
      return "input ";
    case uml::PortDirection::kOut:
      return "output";
    case uml::PortDirection::kInOut:
      return "inout ";
  }
  return "input ";
}

struct RegisterInfo {
  std::string verilog_name;
  std::uint64_t address = 0;
  std::string access = "rw";
  std::string reset = "0";
};

std::vector<RegisterInfo> collect_registers(const uml::Class& module,
                                            const soc::SocProfile& profile,
                                            support::DiagnosticSink& sink) {
  std::vector<RegisterInfo> registers;
  std::uint64_t next_free = 0;
  for (const auto& property : module.properties()) {
    if (!property->has_stereotype(*profile.hw_register)) continue;
    RegisterInfo info;
    info.verilog_name = support::to_snake_case(property->name());
    std::optional<std::uint64_t> address = profile.register_address(*property);
    if (!address.has_value()) {
      sink.warning(property->qualified_name(), "register address missing; auto-assigned");
      address = next_free;
    }
    info.address = *address;
    next_free = std::max(next_free, info.address + 4);
    info.access = profile.register_access(*property);
    std::string reset = property->tagged_value(*profile.hw_register, "reset");
    if (!reset.empty()) info.reset = reset;
    registers.push_back(std::move(info));
  }
  std::sort(registers.begin(), registers.end(),
            [](const RegisterInfo& a, const RegisterInfo& b) { return a.address < b.address; });
  return registers;
}

}  // namespace

std::string generate_rtl_module(const uml::Class& module, const soc::SocProfile& profile,
                                support::DiagnosticSink& sink, const RtlOptions& options) {
  const std::string name = support::to_snake_case(module.name());
  const int width = options.data_width;
  std::vector<RegisterInfo> registers = collect_registers(module, profile, sink);

  std::string out = "// Generated by umlsoc from " + module.qualified_name() + "\n";
  out += "module " + name + " (\n";

  std::vector<std::string> port_lines;
  bool has_clk = false;
  bool has_rst = false;
  for (const auto& port : module.ports()) {
    const std::string port_name = support::to_snake_case(port->name());
    if (port_name == "clk") has_clk = true;
    if (port_name == "rst_n") has_rst = true;
    if (port_name == "s_axi") continue;  // Replaced by the register-file bus.
    port_lines.push_back("  " + direction_keyword(port->direction()) + " wire " +
                         range_of(port->width()) + " " + port_name);
  }
  if (!has_clk) port_lines.insert(port_lines.begin(), "  input  wire         clk");
  if (!has_rst) port_lines.insert(port_lines.begin() + 1, "  input  wire         rst_n");
  if (options.include_register_file) {
    port_lines.push_back("  input  wire " + range_of(width) + " reg_addr");
    port_lines.push_back("  input  wire " + range_of(width) + " reg_wdata");
    port_lines.push_back("  input  wire         reg_wen");
    port_lines.push_back("  output reg  " + range_of(width) + " reg_rdata");
    port_lines.push_back("  output reg          reg_error");
  }
  out += support::join(port_lines, ",\n") + "\n);\n\n";

  for (const RegisterInfo& reg : registers) {
    out += "  reg " + range_of(width) + " " + reg.verilog_name + ";  // @0x" +
           to_hex(reg.address) + " (" + reg.access + ")\n";
  }

  if (!registers.empty()) {
    out += "\n  always @(posedge clk or negedge rst_n) begin\n";
    out += "    if (!rst_n) begin\n";
    for (const RegisterInfo& reg : registers) {
      out += "      " + reg.verilog_name + " <= " + std::to_string(width) + "'d" + reg.reset +
             ";\n";
    }
    out += "    end else if (reg_wen) begin\n      case (reg_addr)\n";
    for (const RegisterInfo& reg : registers) {
      if (reg.access.find('w') == std::string::npos) continue;
      out += "        " + std::to_string(width) + "'h" + to_hex(reg.address) + ": " +
             reg.verilog_name + " <= reg_wdata;\n";
    }
    out += "        default: ;\n      endcase\n    end\n  end\n";

    out += "\n  always @(*) begin\n    case (reg_addr)\n";
    for (const RegisterInfo& reg : registers) {
      if (reg.access.find('r') == std::string::npos) continue;
      out += "      " + std::to_string(width) + "'h" + to_hex(reg.address) +
             ": reg_rdata = " + reg.verilog_name + ";\n";
    }
    out += "      default: reg_rdata = " + std::to_string(width) + "'d0;\n";
    out += "    endcase\n  end\n";

    // Decode-error flag mirroring the simulator's BusStatus::kError: an
    // address that decodes to no readable register raises reg_error, so a
    // master cannot confuse an all-ones register value with a bad access.
    out += "\n  always @(*) begin\n    case (reg_addr)\n";
    for (const RegisterInfo& reg : registers) {
      if (reg.access.find('r') == std::string::npos) continue;
      out += "      " + std::to_string(width) + "'h" + to_hex(reg.address) +
             ": reg_error = 1'b0;\n";
    }
    out += "      default: reg_error = 1'b1;\n";
    out += "    endcase\n  end\n";
  } else if (options.include_register_file) {
    out += "\n  always @(*) begin\n    reg_rdata = " + std::to_string(width) +
           "'d0;\n    reg_error = 1'b1;\n  end\n";
  }

  out += "endmodule\n";
  return out;
}

std::string generate_rtl_fsm(const statechart::StateMachine& machine,
                             support::DiagnosticSink& sink) {
  std::optional<statechart::FlatStateMachine> flat = statechart::flatten(machine, sink);
  if (!flat.has_value()) return {};

  const std::string name = support::to_snake_case(machine.name()) + "_fsm";
  const std::size_t state_count = flat->states.size();
  int state_bits = 1;
  while ((1u << state_bits) < state_count) ++state_bits;

  // Unique triggers, sorted for deterministic port order.
  std::set<std::string> triggers;
  for (const statechart::FlatTransition& row : flat->transitions) {
    triggers.insert(row.trigger);
  }

  std::string out = "// Generated by umlsoc from state machine " + machine.name() + "\n";
  out += "module " + name + " (\n  input  wire clk,\n  input  wire rst_n";
  for (const std::string& trigger : triggers) {
    out += ",\n  input  wire ev_" + support::to_snake_case(trigger);
  }
  out += ",\n  output reg  " + range_of(state_bits) + " state\n);\n\n";

  // State encodings derived from leaf names.
  std::vector<std::string> encodings;
  for (std::size_t i = 0; i < state_count; ++i) {
    std::string encoding = "S_" + support::to_snake_case(flat->state_names[i]);
    std::replace(encoding.begin(), encoding.end(), '.', '_');
    encodings.push_back(encoding);
    out += "  localparam " + encoding + " = " + std::to_string(state_bits) + "'d" +
           std::to_string(i) + ";\n";
  }

  out += "\n  always @(posedge clk or negedge rst_n) begin\n";
  out += "    if (!rst_n) begin\n      state <= " + encodings[flat->initial_state] +
         ";\n    end else begin\n      case (state)\n";
  for (std::size_t i = 0; i < state_count; ++i) {
    // Rows from this state, preserving priority order per trigger.
    std::vector<const statechart::FlatTransition*> rows;
    for (const statechart::FlatTransition& row : flat->transitions) {
      if (row.from == i) rows.push_back(&row);
    }
    if (rows.empty()) continue;
    out += "        " + encodings[i] + ": begin\n";
    bool first = true;
    for (const statechart::FlatTransition* row : rows) {
      out += first ? "          if (ev_" : "          else if (ev_";
      out += support::to_snake_case(row->trigger) + ")";
      if (!row->origin->guard().text.empty()) {
        out += " /* [" + row->origin->guard().text + "] */";
      }
      out += " state <= " + encodings[row->to] + ";";
      if (!row->origin->effect().text.empty()) {
        out += "  // effect: " + row->origin->effect().text;
      }
      out += "\n";
      first = false;
    }
    out += "        end\n";
  }
  out += "        default: state <= " + encodings[flat->initial_state] + ";\n";
  out += "      endcase\n    end\n  end\nendmodule\n";
  return out;
}

std::string generate_rtl_top(const uml::Class& top, const soc::SocProfile& profile,
                             support::DiagnosticSink& sink) {
  (void)profile;
  const std::string name = support::to_snake_case(top.name());
  std::string out = "// Generated by umlsoc from " + top.qualified_name() + "\n";
  out += "module " + name + " (\n  input wire clk,\n  input wire rst_n\n);\n\n";

  // One wire per connector.
  for (const auto& connector : top.connectors()) {
    out += "  wire " + support::to_snake_case(connector->name()) + ";\n";
  }
  out += "\n";

  // Which connector touches (part, port)?
  auto wire_for = [&](const uml::Property* part, const uml::Port* port) -> std::string {
    for (const auto& connector : top.connectors()) {
      for (const uml::ConnectorEnd& end : connector->ends()) {
        if (end.part == part && end.port == port) {
          return support::to_snake_case(connector->name());
        }
      }
    }
    return {};
  };

  for (const auto& part : top.properties()) {
    if (!part->is_part()) continue;
    const auto* part_type = dynamic_cast<const uml::Class*>(part->type());
    if (part_type == nullptr) {
      sink.warning(part->qualified_name(), "part without class type skipped");
      continue;
    }
    out += "  " + support::to_snake_case(part_type->name()) + " " +
           support::to_snake_case(part->name()) + " (\n";
    std::vector<std::string> bindings = {"    .clk(clk)", "    .rst_n(rst_n)"};
    for (const auto& port : part_type->ports()) {
      const std::string port_name = support::to_snake_case(port->name());
      if (port_name == "clk" || port_name == "rst_n") continue;
      std::string wire = wire_for(part.get(), port.get());
      bindings.push_back("    ." + port_name + "(" + wire + ")");
    }
    out += support::join(bindings, ",\n") + "\n  );\n\n";
  }
  out += "endmodule\n";
  return out;
}

std::string generate_rtl_testbench(const uml::Class& module, const soc::SocProfile& profile,
                                   support::DiagnosticSink& sink) {
  const std::string name = support::to_snake_case(module.name());
  std::vector<RegisterInfo> registers = collect_registers(module, profile, sink);

  std::string out = "// Generated by umlsoc: testbench for " + module.qualified_name() + "\n";
  out += "`timescale 1ns/1ps\n";
  out += "module " + name + "_tb;\n";
  out += "  reg clk = 1'b0;\n  reg rst_n = 1'b0;\n";
  out += "  always #5 clk = ~clk;\n\n";
  out += "  reg  [31:0] reg_addr = 32'd0;\n";
  out += "  reg  [31:0] reg_wdata = 32'd0;\n";
  out += "  reg         reg_wen = 1'b0;\n";
  out += "  wire [31:0] reg_rdata;\n";
  out += "  wire        reg_error;\n";

  // Driver regs / monitor wires for the DUT's own ports.
  std::vector<std::string> bindings = {"    .clk(clk)", "    .rst_n(rst_n)",
                                       "    .reg_addr(reg_addr)", "    .reg_wdata(reg_wdata)",
                                       "    .reg_wen(reg_wen)", "    .reg_rdata(reg_rdata)",
                                       "    .reg_error(reg_error)"};
  for (const auto& port : module.ports()) {
    const std::string port_name = support::to_snake_case(port->name());
    if (port_name == "clk" || port_name == "rst_n" || port_name == "s_axi") continue;
    if (port->direction() == uml::PortDirection::kOut) {
      out += "  wire " + range_of(port->width()) + " " + port_name + ";\n";
    } else {
      out += "  reg  " + range_of(port->width()) + " " + port_name + " = 0;\n";
    }
    bindings.push_back("    ." + port_name + "(" + port_name + ")");
  }

  out += "\n  " + name + " dut (\n" + support::join(bindings, ",\n") + "\n  );\n\n";

  out += "  integer errors = 0;\n\n";
  out += "  task write_reg(input [31:0] addr, input [31:0] data);\n";
  out += "    begin\n      @(posedge clk);\n      reg_addr <= addr;\n";
  out += "      reg_wdata <= data;\n      reg_wen <= 1'b1;\n";
  out += "      @(posedge clk);\n      reg_wen <= 1'b0;\n    end\n  endtask\n\n";
  out += "  task read_check(input [31:0] addr, input [31:0] expected);\n";
  out += "    begin\n      @(posedge clk);\n      reg_addr <= addr;\n";
  out += "      @(posedge clk);\n      #1;\n";
  out += "      if (reg_rdata !== expected) begin\n";
  out += "        $display(\"FAIL addr=%h got=%h want=%h\", addr, reg_rdata, expected);\n";
  out += "        errors = errors + 1;\n      end\n    end\n  endtask\n\n";

  out += "  initial begin\n";
  out += "    repeat (4) @(posedge clk);\n    rst_n = 1'b1;\n    @(posedge clk);\n";
  std::uint64_t pattern = 0xA5;
  for (const RegisterInfo& reg : registers) {
    const bool readable = reg.access.find('r') != std::string::npos;
    const bool writable = reg.access.find('w') != std::string::npos;
    if (readable && !writable) {
      // Reset-value check only.
      out += "    read_check(32'h" + to_hex(reg.address) + ", 32'd" + reg.reset + ");  // " +
             reg.verilog_name + " (r)\n";
    } else if (writable) {
      out += "    write_reg(32'h" + to_hex(reg.address) + ", 32'h" + to_hex(pattern) + ");  // " +
             reg.verilog_name + "\n";
      if (readable) {
        out += "    read_check(32'h" + to_hex(reg.address) + ", 32'h" + to_hex(pattern) + ");\n";
      }
      pattern = pattern * 3 + 7;
    }
  }
  out += "    // Decode-error probe: an unmapped address must raise reg_error.\n";
  out += "    @(posedge clk);\n    reg_addr <= 32'hdeadbeef;\n    @(posedge clk);\n    #1;\n";
  out += "    if (reg_error !== 1'b1) begin\n";
  out += "      $display(\"FAIL unmapped address did not raise reg_error\");\n";
  out += "      errors = errors + 1;\n    end\n";
  out += "    if (errors == 0) $display(\"PASS " + name + "_tb\");\n";
  out += "    else $display(\"FAIL " + name + "_tb: %0d errors\", errors);\n";
  out += "    $finish;\n  end\nendmodule\n";
  return out;
}

bool check_rtl_structure(const std::string& text, support::DiagnosticSink& sink) {
  const std::size_t errors_before = sink.error_count();
  long modules = 0;
  long begins = 0;
  long cases = 0;

  // Token scan; comments are stripped line-wise first.
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    std::size_t comment = line.find("//");
    if (comment != std::string::npos) line = line.substr(0, comment);

    std::size_t i = 0;
    while (i < line.size()) {
      if (std::isalpha(static_cast<unsigned char>(line[i])) == 0 && line[i] != '_') {
        ++i;
        continue;
      }
      std::size_t word_start = i;
      while (i < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[i])) != 0 || line[i] == '_')) {
        ++i;
      }
      std::string word = line.substr(word_start, i - word_start);
      if (word == "module") ++modules;
      if (word == "endmodule") --modules;
      if (word == "begin") ++begins;
      if (word == "end") --begins;
      if (word == "case" || word == "casez") ++cases;
      if (word == "endcase") --cases;
    }
    start = end + 1;
  }
  if (modules != 0) sink.error("rtl", "unbalanced module/endmodule (" + std::to_string(modules) + ")");
  if (begins != 0) sink.error("rtl", "unbalanced begin/end (" + std::to_string(begins) + ")");
  if (cases != 0) sink.error("rtl", "unbalanced case/endcase (" + std::to_string(cases) + ")");
  return sink.error_count() == errors_before;
}

}  // namespace umlsoc::codegen
