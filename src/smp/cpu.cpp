#include "kop/smp/cpu.hpp"

namespace kop::smp {

namespace detail {
constinit thread_local uint32_t t_current_cpu = 0;
}  // namespace detail

ScopedCpu::ScopedCpu(uint32_t cpu) : prev_(detail::t_current_cpu) {
  detail::t_current_cpu = cpu < kMaxCpus ? cpu : kMaxCpus - 1;
}

ScopedCpu::~ScopedCpu() { detail::t_current_cpu = prev_; }

}  // namespace kop::smp
