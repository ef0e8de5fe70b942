#include "cellsim/cell_processor.h"

namespace cellsweep::cell {

Spe::Spe(int index, const CellSpec& spec, Eib* eib, Mic* mic)
    : index_(index),
      spec_(spec),
      ls_(spec.local_store_bytes),
      mfc_(spec, eib, mic, "mfc" + std::to_string(index)) {}

sim::Tick Spe::compute(sim::Tick now, double cycles) {
  const sim::Tick dt = spec_.cycles(cycles);
  s_.busy += dt;
  return now + dt;
}

CellProcessor::CellProcessor(const CellSpec& spec)
    : spec_(spec),
      eib_(spec),
      mic_(spec),
      dispatch_(spec) {
  spes_.reserve(spec.num_spes);
  for (int i = 0; i < spec.num_spes; ++i)
    spes_.push_back(std::make_unique<Spe>(i, spec, &eib_, &mic_));
}

}  // namespace cellsweep::cell
