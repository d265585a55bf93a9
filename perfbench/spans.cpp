#include "spans.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <chrono>
#include <stdexcept>

#include "bench_stats.h"

namespace perfbench {

namespace {

thread_local int tls_open_span = -1;

double tvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
}

}  // namespace

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double pageProbeSeconds() {
  constexpr std::size_t kBytes = 16u << 20;
  constexpr std::size_t kPage = 4096;
  const double t0 = nowSeconds();
  void* map = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::runtime_error("speed probe: mmap failed");
  volatile char* bytes = static_cast<volatile char*>(map);
  for (std::size_t i = 0; i < kBytes; i += kPage) bytes[i] = 1;
  ::munmap(map, kBytes);
  return nowSeconds() - t0;
}

ThreadUsage threadUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  ThreadUsage u;
  u.user_s = tvSeconds(ru.ru_utime);
  u.sys_s = tvSeconds(ru.ru_stime);
  u.minor_faults = ru.ru_minflt;
  return u;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(nowSeconds()) {}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           std::uint64_t cell)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  saved_parent_ = tls_open_span;
  {
    std::lock_guard<std::mutex> lock(recorder_->mu_);
    id_ = static_cast<int>(recorder_->spans_.size());
    Span& s = recorder_->spans_.emplace_back();
    s.name = std::move(name);
    s.parent = saved_parent_;
    s.cell = cell;
  }
  tls_open_span = id_;
  usage_ = threadUsage();
  const double start = nowSeconds() - recorder_->epoch_;
  std::lock_guard<std::mutex> lock(recorder_->mu_);
  recorder_->spans_[static_cast<std::size_t>(id_)].start = start;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const double end = nowSeconds() - recorder_->epoch_;
  const ThreadUsage now = threadUsage();
  tls_open_span = saved_parent_;
  std::lock_guard<std::mutex> lock(recorder_->mu_);
  Span& s = recorder_->spans_[static_cast<std::size_t>(id_)];
  s.end = end;
  s.user_s = now.user_s - usage_.user_s;
  s.sys_s = now.sys_s - usage_.sys_s;
  s.minor_faults = now.minor_faults - usage_.minor_faults;
}

void SpanRecorder::Scope::setWork(std::uint64_t work) {
  if (recorder_ == nullptr) return;
  std::lock_guard<std::mutex> lock(recorder_->mu_);
  recorder_->spans_[static_cast<std::size_t>(id_)].work = work;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, LayerTotals> aggregateLayers(
    const std::vector<Span>& spans) {
  std::vector<SpanTime> times;
  times.reserve(spans.size());
  for (const Span& s : spans) times.push_back({s.parent, s.start, s.end});
  const std::vector<double> self = selfTimes(times);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTotals& t = out[s.name];
    ++t.spans;
    t.self_s += self[i];
    t.wall_s += s.end - s.start;
    t.user_s += s.user_s;
    t.sys_s += s.sys_s;
    t.minor_faults += s.minor_faults;
    t.work += s.work;
    t.cells.insert(s.cell);
  }
  return out;
}

}  // namespace perfbench
