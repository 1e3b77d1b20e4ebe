#include "mda/transform.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/strings.hpp"
#include "uml/query.hpp"

namespace umlsoc::mda {

using namespace uml;

namespace {

/// Shared machinery: package skeleton replication, type rebinding, links.
class TransformerBase {
 public:
  TransformerBase(const Model& pim, const PlatformDescription& platform,
                  support::DiagnosticSink& sink)
      : pim_(const_cast<Model&>(pim)),  // Read-only traversal; uml queries are non-const.
        platform_(platform),
        sink_(sink) {
    pim_profile_ = soc::SocProfile::find(pim_);
  }

  MdaResult take_result() && {
    MdaResult result;
    result.psm = std::move(psm_);
    result.links = std::move(links_);
    result.memory_map = std::move(memory_map_);
    return result;
  }

 protected:
  void link(const NamedElement& pim_element, const NamedElement& psm_element,
            std::string rule) {
    links_.push_back(
        TraceLink{pim_element.qualified_name(), psm_element.qualified_name(), std::move(rule)});
  }

  /// PSM package mirroring the PIM package (created on demand).
  Package& psm_package_for(Package& pim_package) {
    auto it = package_map_.find(&pim_package);
    if (it != package_map_.end()) return *it->second;
    if (pim_package.kind() == ElementKind::kModel) return *psm_;
    Package& parent = psm_package_for(*static_cast<Package*>(pim_package.owner()));
    Package& copy = parent.add_package(pim_package.name());
    package_map_[&pim_package] = &copy;
    link(pim_package, copy, "package-copy");
    return copy;
  }

  Classifier* rebind_type(Classifier* type) {
    if (type == nullptr) return nullptr;
    if (auto* primitive = dynamic_cast<PrimitiveType*>(type)) {
      return &psm_->primitive(primitive->name(), primitive->bit_width());
    }
    auto it = type_map_.find(type);
    return it == type_map_.end() ? nullptr : it->second;
  }

  /// Copies enumerations / data types shared by both mappings.
  void map_data_type(Package& psm_package, NamedElement& member) {
    if (auto* enumeration = dynamic_cast<Enumeration*>(&member)) {
      Enumeration& copy = psm_package.add_enumeration(enumeration->name());
      for (const std::string& literal : enumeration->literals()) copy.add_literal(literal);
      type_map_[enumeration] = &copy;
      link(*enumeration, copy, "enumeration-copy");
    } else if (auto* primitive = dynamic_cast<PrimitiveType*>(&member)) {
      type_map_[primitive] = &psm_->primitive(primitive->name(), primitive->bit_width());
    } else if (auto* data_type = dynamic_cast<DataType*>(&member)) {
      DataType& copy = psm_package.add_data_type(data_type->name());
      type_map_[data_type] = &copy;
      link(*data_type, copy, "datatype-copy");
    }
  }

  void copy_operation_into(Operation& source, Operation& copy) {
    copy.set_body(source.body());
    copy.set_query(source.is_query());
    copy.set_abstract(source.is_abstract());
    for (const auto& parameter : source.parameters()) {
      Parameter& parameter_copy =
          copy.add_parameter(parameter->name(), nullptr, parameter->direction());
      if (Classifier* type = rebind_type(parameter->type())) parameter_copy.set_type(*type);
      parameter_copy.set_default_value(parameter->default_value());
    }
  }

  [[nodiscard]] bool is_hw(const Class& cls) const {
    return pim_profile_.has_value() && cls.has_stereotype(*pim_profile_->hw_module);
  }
  [[nodiscard]] bool is_sw_task(const Class& cls) const {
    return pim_profile_.has_value() && cls.has_stereotype(*pim_profile_->sw_task);
  }
  [[nodiscard]] bool is_register(const Property& property) const {
    return pim_profile_.has_value() && property.has_stereotype(*pim_profile_->hw_register);
  }

  Model& pim_;
  const PlatformDescription& platform_;
  support::DiagnosticSink& sink_;
  std::optional<soc::SocProfile> pim_profile_;
  std::unique_ptr<Model> psm_;
  std::vector<TraceLink> links_;
  std::vector<MemoryWindow> memory_map_;
  std::unordered_map<const Package*, Package*> package_map_;
  std::unordered_map<const Classifier*, Classifier*> type_map_;
};

// --- Software platform ---------------------------------------------------------

class SoftwareTransformer : public TransformerBase {
 public:
  using TransformerBase::TransformerBase;

  void run() {
    psm_ = std::make_unique<Model>(pim_.name() + "_" + platform_.name);

    // Pass 1: classifiers.
    for (Class* cls : collect<Class>(pim_)) {
      Package& target = psm_package_for(*static_cast<Package*>(cls->owner()));
      if (is_hw(*cls)) {
        Class& driver = target.add_class(cls->name() + "Driver");
        driver.set_documentation("Driver for «HwModule» " + cls->name());
        type_map_[cls] = &driver;
        link(*cls, driver, "hw-module-to-driver");
      } else {
        Class& task = target.add_class(cls->name());
        if (is_sw_task(*cls) || cls->is_active()) task.set_active(true);
        type_map_[cls] = &task;
        link(*cls, task, is_sw_task(*cls) ? "sw-task-to-active-class" : "class-copy");
      }
    }
    for (Interface* interface : collect<Interface>(pim_)) {
      Package& target = psm_package_for(*static_cast<Package*>(interface->owner()));
      Interface& copy = target.add_interface(interface->name());
      type_map_[interface] = &copy;
      link(*interface, copy, "interface-copy");
    }
    for (Package* package : collect<Package>(pim_)) {
      if (package == &pim_ || dynamic_cast<Profile*>(package) != nullptr) continue;
      if (package->name() == "<primitives>") continue;
      Package& target = psm_package_for(*package);
      for (const auto& member : package->members()) map_data_type(target, *member);
    }

    // Pass 2: features and relationships.
    for (Class* cls : collect<Class>(pim_)) {
      auto* target = static_cast<Class*>(type_map_.at(cls));
      if (is_hw(*cls)) {
        fill_driver(*cls, *target);
      } else {
        fill_task(*cls, *target);
      }
    }
    for (Interface* interface : collect<Interface>(pim_)) {
      auto* target = static_cast<Interface*>(type_map_.at(interface));
      for (const auto& operation : interface->operations()) {
        copy_operation_into(*operation, target->add_operation(operation->name()));
      }
    }
    for (Association* association : collect<Association>(pim_)) {
      map_association(*association);
    }
  }

 private:
  void fill_task(Class& source, Class& copy) {
    for (const auto& property : source.properties()) {
      Property& property_copy = copy.add_property(property->name());
      if (Classifier* type = rebind_type(property->type())) property_copy.set_type(*type);
      property_copy.set_multiplicity(property->multiplicity());
      property_copy.set_default_value(property->default_value());
    }
    for (const auto& operation : source.operations()) {
      copy_operation_into(*operation, copy.add_operation(operation->name()));
    }
    for (Classifier* general : source.generals()) {
      if (Classifier* mapped = rebind_type(general)) copy.add_generalization(*mapped);
    }
    for (Interface* contract : source.interface_realizations()) {
      if (auto* mapped = dynamic_cast<Interface*>(rebind_type(contract))) {
        copy.add_interface_realization(*mapped);
      }
    }
  }

  void fill_driver(Class& source, Class& driver) {
    Property& base = driver.add_property("base", &psm_->primitive("Word", 32));
    base.set_default_value("0x0");
    for (const auto& property : source.properties()) {
      if (!is_register(*property)) continue;
      std::optional<std::uint64_t> address = pim_profile_->register_address(*property);
      const std::string offset = address.has_value() ? std::to_string(*address) : "0";
      const std::string constant_name =
          support::to_snake_case(property->name()) + "_offset";
      Property& offset_property =
          driver.add_property(constant_name, &psm_->primitive("Word", 32));
      offset_property.set_default_value(offset);
      offset_property.set_read_only(true);
      offset_property.set_static(true);

      const std::string access = pim_profile_->register_access(*property);
      if (access.find('r') != std::string::npos) {
        Operation& read = driver.add_operation("read_" + property->name());
        read.set_return_type(psm_->primitive("Word", 32));
        read.set_body("return bus_read(self.base + " + offset + ");");
        read.set_query(true);
      }
      if (access.find('w') != std::string::npos) {
        Operation& write = driver.add_operation("write_" + property->name());
        write.add_parameter("value", &psm_->primitive("Word", 32));
        write.set_body("bus_write(self.base + " + offset + ", value);");
      }
    }
  }

  void map_association(Association& association) {
    if (!association.is_binary()) {
      sink_.warning(association.qualified_name(),
                    "n-ary association not mapped to references");
      return;
    }
    Property& end_a = *association.ends()[0];
    Property& end_b = *association.ends()[1];
    auto* class_a = dynamic_cast<Class*>(rebind_type(end_a.type()));
    auto* class_b = dynamic_cast<Class*>(rebind_type(end_b.type()));
    if (class_a == nullptr || class_b == nullptr) {
      sink_.warning(association.qualified_name(),
                    "association ends not mapped; skipping reference generation");
      return;
    }
    // Each class receives a reference named after the opposite end.
    Property& ref_in_a = class_a->add_property(end_b.name(), class_b);
    ref_in_a.set_multiplicity(end_b.multiplicity());
    Property& ref_in_b = class_b->add_property(end_a.name(), class_a);
    ref_in_b.set_multiplicity(end_a.multiplicity());
    link(association, ref_in_a, "association-to-references");
  }
};

// --- Hardware platform ------------------------------------------------------------

class HardwareTransformer : public TransformerBase {
 public:
  using TransformerBase::TransformerBase;

  void run() {
    psm_ = std::make_unique<Model>(pim_.name() + "_" + platform_.name);
    psm_profile_ = soc::SocProfile::install(*psm_);

    for (Package* package : collect<Package>(pim_)) {
      if (package == &pim_ || dynamic_cast<Profile*>(package) != nullptr) continue;
      if (package->name() == "<primitives>") continue;
      Package& target = psm_package_for(*package);
      for (const auto& member : package->members()) map_data_type(target, *member);
    }

    std::vector<Component*> modules;
    for (Class* cls : collect<Class>(pim_)) {
      if (is_sw_task(*cls)) {
        sink_.note(cls->qualified_name(),
                   "«SwTask» not mapped to hardware (runs on the processor)");
        continue;
      }
      modules.push_back(&map_module(*cls));
    }

    // Features after all modules exist (cross-references).
    for (Class* cls : collect<Class>(pim_)) {
      auto it = type_map_.find(cls);
      if (it == type_map_.end()) continue;
      fill_module(*cls, *static_cast<Component*>(it->second));
    }

    build_memory_map(modules);
    build_top(modules);
  }

 private:
  Component& map_module(Class& cls) {
    Package& target = psm_package_for(*static_cast<Package*>(cls.owner()));
    Component& module = target.add_component(cls.name());
    module.apply_stereotype(*psm_profile_.hw_module);
    if (pim_profile_.has_value() && is_hw(cls)) {
      module.set_tagged_value(*psm_profile_.hw_module, "clockMHz",
                              cls.tagged_value(*pim_profile_->hw_module, "clockMHz"));
      module.set_tagged_value(*psm_profile_.hw_module, "areaGates",
                              cls.tagged_value(*pim_profile_->hw_module, "areaGates"));
    }
    type_map_[&cls] = &module;
    link(cls, module, "class-to-hw-module");
    return module;
  }

  void fill_module(Class& source, Component& module) {
    // Mandatory infrastructure ports.
    if (source.find_port("clk") == nullptr) {
      Port& clk = module.add_port("clk", PortDirection::kIn);
      clk.apply_stereotype(*psm_profile_.clock);
    }
    if (source.find_port("rst_n") == nullptr) {
      module.add_port("rst_n", PortDirection::kIn);
    }
    Port& s_axi = module.add_port("s_axi", PortDirection::kIn);
    s_axi.set_width(psm_profile_.bus_width(module));

    for (const auto& port : source.ports()) {
      Port& port_copy = module.add_port(port->name(), port->direction());
      port_copy.set_width(port->width());
      if (Classifier* type = rebind_type(port->type())) port_copy.set_type(*type);
      if (pim_profile_.has_value() && port->has_stereotype(*pim_profile_->clock)) {
        port_copy.apply_stereotype(*psm_profile_.clock);
      }
    }

    // Registers: keep tags, auto-assign missing/duplicate addresses.
    std::uint64_t next_free = 0;
    for (const auto& property : source.properties()) {
      Property& property_copy = module.add_property(property->name());
      if (Classifier* type = rebind_type(property->type())) property_copy.set_type(*type);
      property_copy.set_default_value(property->default_value());

      const bool reg = is_register(*property) || property->type() != nullptr;
      if (!reg) continue;
      property_copy.apply_stereotype(*psm_profile_.hw_register);
      std::optional<std::uint64_t> address;
      if (is_register(*property)) {
        address = pim_profile_->register_address(*property);
        property_copy.set_tagged_value(*psm_profile_.hw_register, "access",
                                       pim_profile_->register_access(*property));
      }
      if (!address.has_value()) address = next_free;
      next_free = std::max(next_free, *address + 4);
      property_copy.set_tagged_value(*psm_profile_.hw_register, "address",
                                     "0x" + support::to_hex(*address));
    }

    for (const auto& operation : source.operations()) {
      copy_operation_into(*operation, module.add_operation(operation->name()));
    }
  }

  void build_memory_map(const std::vector<Component*>& modules) {
    std::uint64_t base =
        soc::parse_address(platform_.parameter("bus_base", "0x40000000")).value_or(0x40000000);
    std::uint64_t stride =
        soc::parse_address(platform_.parameter("module_stride", "0x1000")).value_or(0x1000);
    for (Component* module : modules) {
      std::uint64_t max_address = 0;
      bool has_registers = false;
      for (const auto& property : module->properties()) {
        if (!property->has_stereotype(*psm_profile_.hw_register)) continue;
        has_registers = true;
        max_address =
            std::max(max_address, psm_profile_.register_address(*property).value_or(0));
      }
      if (!has_registers) continue;
      std::uint64_t span = ((max_address + 4 + 0xFF) / 0x100) * 0x100;
      memory_map_.push_back(MemoryWindow{module->qualified_name(), base, span});
      base += std::max(stride, span);
    }
  }

  void build_top(const std::vector<Component*>& modules) {
    if (modules.empty()) return;
    Package& top_package = psm_->add_package("top");

    Component& bus = top_package.add_component("AxiLiteBus");
    bus.apply_stereotype(*psm_profile_.bus);
    bus.set_tagged_value(*psm_profile_.bus, "protocol",
                         platform_.parameter("protocol", "axi-lite"));
    Port& m_axi = bus.add_port("m_axi", PortDirection::kOut);
    m_axi.set_width(psm_profile_.bus_width(bus));

    Component& top = top_package.add_component("Top");
    Property& bus_part = top.add_property("bus0", &bus);
    bus_part.set_aggregation(AggregationKind::kComposite);

    for (Component* module : modules) {
      Property& part =
          top.add_property(support::to_snake_case(module->name()) + "0", module);
      part.set_aggregation(AggregationKind::kComposite);
      Connector& wire = top.add_connector("axi_" + part.name());
      wire.add_end(ConnectorEnd{&part, module->find_port("s_axi")});
      wire.add_end(ConnectorEnd{&bus_part, &m_axi});
      wire.apply_stereotype(*psm_profile_.channel);
    }
    link(pim_, top, "model-to-top-structure");
  }

  soc::SocProfile psm_profile_;
};

}  // namespace

MdaResult transform(const Model& pim, const PlatformDescription& platform,
                    support::DiagnosticSink& sink) {
  if (platform.kind == PlatformKind::kSoftware) {
    SoftwareTransformer transformer(pim, platform, sink);
    transformer.run();
    return std::move(transformer).take_result();
  }
  HardwareTransformer transformer(pim, platform, sink);
  transformer.run();
  return std::move(transformer).take_result();
}

}  // namespace umlsoc::mda
