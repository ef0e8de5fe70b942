#include "sim/fault.h"

#include "util/spec_grammar.h"

namespace cellsweep::sim {
namespace {

[[noreturn]] void fail(const std::string& entry, const std::string& why) {
  throw FaultSpecError("fault spec entry '" + entry + "': " + why);
}

/// Reports a bad field of @p entry (the util::parse_field messages).
auto bad_field(const std::string& entry) {
  return [&entry](const std::string& why) { fail(entry, why); };
}

double parse_rate(const std::string& entry, const std::string& v) {
  const double x = util::parse_field<double>(v, bad_field(entry));
  if (!(x >= 0.0 && x <= 1.0)) fail(entry, "rate must be in [0, 1]");
  return x;
}

double parse_factor(const std::string& entry, const std::string& v, double lo,
                    double hi) {
  const double x = util::parse_field<double>(v, bad_field(entry));
  if (!(x >= lo && x <= hi)) fail(entry, "factor '" + v + "' out of range");
  return x;
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  for (const std::string& entry : util::split_fields(text, ',')) {
    if (entry.empty()) continue;  // tolerate "a,,b" and trailing commas
    const auto bad = bad_field(entry);
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos)
      fail(entry, "expected key=value (keys: seed, dma, timeout, drop, "
                  "throttle, retries, spe)");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "seed") {
      spec.seed = util::parse_field<std::uint64_t>(value, bad);
    } else if (key == "dma") {
      spec.dma_fail_rate = parse_rate(entry, value);
    } else if (key == "timeout") {
      spec.tag_timeout_rate = parse_rate(entry, value);
    } else if (key == "drop") {
      spec.mailbox_drop_rate = parse_rate(entry, value);
    } else if (key == "throttle") {
      const auto parts = util::split_fields(value, ':');
      spec.mic_throttle_rate = parse_rate(entry, parts[0]);
      if (parts.size() == 2) {
        spec.mic_throttle_factor = parse_factor(entry, parts[1], 0.01, 1.0);
      } else if (parts.size() > 2) {
        fail(entry, "expected throttle=<rate>[:<factor>]");
      }
    } else if (key == "retries") {
      spec.max_dma_retries = static_cast<int>(
          util::parse_field<std::int64_t>(value, 0, 30, bad));
    } else if (key == "spe") {
      const auto parts = util::split_fields(value, ':');
      if (parts.size() < 2)
        fail(entry, "expected spe=<index>:down | spe=<index>:after:<chunks> "
                    "| spe=<index>:slow:<factor>");
      SpeFault f;
      f.spe = static_cast<int>(
          util::parse_field<std::int64_t>(parts[0], 0, 255, bad));
      if (parts[1] == "down") {
        if (parts.size() != 2) fail(entry, "spe=<index>:down takes no value");
        f.fail_after_chunks = 0;
      } else if (parts[1] == "after") {
        if (parts.size() != 3) fail(entry, "expected spe=<index>:after:<chunks>");
        f.fail_after_chunks = util::parse_field<std::int64_t>(
            parts[2], 1, std::int64_t{1} << 40, bad);
      } else if (parts[1] == "slow") {
        if (parts.size() != 3) fail(entry, "expected spe=<index>:slow:<factor>");
        f.compute_scale = parse_factor(entry, parts[2], 1.0, 1000.0);
      } else {
        fail(entry, "unknown SPE fault '" + parts[1] +
                    "' (down | after:<chunks> | slow:<factor>)");
      }
      spec.spes.push_back(f);
    } else {
      fail(entry, "unknown key '" + key + "'");
    }
  }
  return spec;
}

FaultPlan::FaultPlan(const FaultSpec& spec) : spec_(spec) {
  auto check_rate = [](double r, const char* what) {
    if (!(r >= 0.0 && r <= 1.0))
      throw FaultSpecError(std::string(what) + " must be in [0, 1]");
  };
  check_rate(spec.dma_fail_rate, "dma_fail_rate");
  check_rate(spec.tag_timeout_rate, "tag_timeout_rate");
  check_rate(spec.mailbox_drop_rate, "mailbox_drop_rate");
  check_rate(spec.mic_throttle_rate, "mic_throttle_rate");
  if (!(spec.mic_throttle_factor > 0.0 && spec.mic_throttle_factor <= 1.0))
    throw FaultSpecError("mic_throttle_factor must be in (0, 1]");
  if (spec.max_dma_retries < 0 || spec.max_dma_retries > 30)
    throw FaultSpecError("max_dma_retries must be in 0..30");
  for (const SpeFault& f : spec.spes) {
    if (f.spe < 0) throw FaultSpecError("SpeFault: negative SPE index");
    if (f.compute_scale < 1.0)
      throw FaultSpecError("SpeFault: compute_scale must be >= 1");
    if (f.fail_after_chunks < -1)
      throw FaultSpecError("SpeFault: fail_after_chunks must be >= -1");
    for (const SpeFault& other : spec.spes)
      if (&other != &f && other.spe == f.spe)
        throw FaultSpecError("SpeFault: duplicate entry for SPE " +
                             std::to_string(f.spe));
  }
  enabled_ = spec.any();
}

double FaultPlan::draw(FaultDomain domain, int unit, std::uint64_t seq,
                       std::uint32_t attempt) const {
  // Hash-chain the decision coordinates into one key, then let
  // SplitMix64 produce the uniform draw. Pure in all arguments: query
  // order never matters, which is what makes the schedule identical
  // across thread counts and run modes.
  using util::splitmix64_mix;
  std::uint64_t z = spec_.seed;
  z = splitmix64_mix(
      z + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(domain) + 1));
  z = splitmix64_mix(
      z + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(unit) + 1));
  z = splitmix64_mix(z + seq);
  z = splitmix64_mix(z + attempt);
  util::SplitMix64 g(z);
  return g.next_double();
}

int FaultPlan::failures(FaultDomain domain, int unit, std::uint64_t seq,
                        double rate, int cap) const {
  if (!enabled_ || rate <= 0.0) return 0;
  int n = 0;
  while (n < cap &&
         draw(domain, unit, seq, static_cast<std::uint32_t>(n)) < rate)
    ++n;
  return n;
}

int FaultPlan::dma_failures(int unit, std::uint64_t seq) const {
  return failures(FaultDomain::kDmaTransfer, unit, seq, spec_.dma_fail_rate,
                  spec_.max_dma_retries);
}

bool FaultPlan::tag_timeout(int unit, std::uint64_t seq) const {
  return enabled_ && spec_.tag_timeout_rate > 0.0 &&
         draw(FaultDomain::kTagWait, unit, seq, 0) < spec_.tag_timeout_rate;
}

int FaultPlan::dispatch_drops(std::uint64_t seq) const {
  return failures(FaultDomain::kDispatch, 0, seq, spec_.mailbox_drop_rate, 4);
}

bool FaultPlan::mic_throttle(std::uint64_t seq) const {
  return enabled_ && spec_.mic_throttle_rate > 0.0 &&
         draw(FaultDomain::kMicBank, 0, seq, 0) < spec_.mic_throttle_rate;
}

bool FaultPlan::spe_disabled(int spe) const {
  return spe_fail_after(spe) == 0;
}

std::int64_t FaultPlan::spe_fail_after(int spe) const {
  for (const SpeFault& f : spec_.spes)
    if (f.spe == spe) return f.fail_after_chunks;
  return -1;
}

double FaultPlan::spe_compute_scale(int spe) const {
  for (const SpeFault& f : spec_.spes)
    if (f.spe == spe) return f.compute_scale;
  return 1.0;
}

}  // namespace cellsweep::sim
