// A deployable machine image: parsed program + compiled machine, bundled so
// the AST outlives every seed instantiated from it. The seeder builds one
// image per (task, machine) and ships it to switches — the analogue of the
// paper's Almanac→XML→seed pipeline (§V-A d).
#pragma once

#include <memory>
#include <string>

#include "almanac/compile.h"
#include "almanac/parser.h"

namespace farm::runtime {

struct MachineImage {
  std::shared_ptr<const almanac::Program> program;
  almanac::CompiledMachine machine;

  static std::shared_ptr<MachineImage> from_source(
      const std::string& source, const std::string& machine_name) {
    auto image = std::make_shared<MachineImage>();
    image->program =
        std::make_shared<almanac::Program>(almanac::parse_program(source));
    image->machine = almanac::compile_machine(*image->program, machine_name);
    return image;
  }
};

}  // namespace farm::runtime
