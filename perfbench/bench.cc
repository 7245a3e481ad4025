#include "bench.h"

#include <sys/resource.h>

#include <filesystem>
#include <memory>
#include <mutex>

#include "support/snapshot.h"

namespace perfbench {

OpOutput output_of(const mak::harness::RunResult& result, std::uint64_t seed) {
  OpOutput out;
  out.app = result.app;
  out.crawler = result.crawler;
  out.seed = seed;
  out.steps = result.steps;
  out.covered = result.final_covered_lines;
  out.links = result.links_discovered;
  out.total_lines = result.total_lines;
  out.completed = !result.failed && !result.aborted;
  return out;
}

std::string canonical(const OpOutput& out) {
  return out.app + "|" + out.crawler + "|" +
         mak::support::snapshot::u64_to_hex(out.seed) + "|" +
         std::to_string(out.steps) + "|" + std::to_string(out.covered) + "|" +
         std::to_string(out.links);
}

bool same_output(const OpOutput& a, const OpOutput& b) {
  return a.completed && b.completed && canonical(a) == canonical(b);
}

namespace {

struct ThreadBuffer {
  std::vector<double> step_us;
  std::vector<double> run_ms;
  Clock::time_point run_start{};
  Clock::time_point last{};
  std::uint64_t last_tag = 0;
  std::size_t last_step = 0;
  bool in_run = false;

  void close_run() {
    if (in_run) {
      run_ms.push_back(seconds_between(run_start, last) * 1e3);
      in_run = false;
    }
  }
};

// Buffers outlive the pool threads that filled them; the registry owns them.
std::mutex buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> buffers;
thread_local ThreadBuffer* local = nullptr;

ThreadBuffer& local_buffer() {
  if (local == nullptr) {
    const std::lock_guard<std::mutex> lock(buffers_mutex);
    buffers.push_back(std::make_unique<ThreadBuffer>());
    local = buffers.back().get();
  }
  return *local;
}

}  // namespace

void StepTimer::run_started() {
  ThreadBuffer& buffer = local_buffer();
  buffer.close_run();
  buffer.run_start = buffer.last = Clock::now();
  buffer.in_run = true;
  buffer.last_step = 0;
}

void StepTimer::step_done(std::uint64_t tag, std::size_t step) {
  ThreadBuffer& buffer = local_buffer();
  const Clock::time_point now = Clock::now();
  if (buffer.last_step != 0 && step == buffer.last_step + 1 &&
      tag == buffer.last_tag) {
    buffer.step_us.push_back(seconds_between(buffer.last, now) * 1e6);
  }
  buffer.last = now;
  buffer.last_tag = tag;
  buffer.last_step = step;
}

// Called between runs, when the pool threads of earlier runs have been
// joined: their buffers are released, so memory does not grow with the
// number of repetitions.
void StepTimer::reset() {
  const std::lock_guard<std::mutex> lock(buffers_mutex);
  std::erase_if(buffers, [](const std::unique_ptr<ThreadBuffer>& buffer) {
    return buffer.get() != local;
  });
  if (local != nullptr) *local = ThreadBuffer{};
}

void StepTimer::collect(std::vector<double>& step_us,
                        std::vector<double>& run_ms) {
  const std::lock_guard<std::mutex> lock(buffers_mutex);
  for (auto& buffer : buffers) {
    buffer->close_run();
    step_us.insert(step_us.end(), buffer->step_us.begin(),
                   buffer->step_us.end());
    run_ms.insert(run_ms.end(), buffer->run_ms.begin(), buffer->run_ms.end());
  }
}

std::function<void(std::size_t)> StepTimer::hook(std::uint64_t tag) {
  return [tag](std::size_t step) { step_done(tag, step); };
}

mak::apps::AppInfo StepTimer::timed(const mak::apps::AppInfo& info) {
  mak::apps::AppInfo wrapped = info;
  wrapped.factory = [factory = info.factory] {
    run_started();
    return factory();
  };
  return wrapped;
}

ScratchDir::ScratchDir(const std::string& base) {
  static std::size_t next = 0;
  path_ = base + "/exec-" + std::to_string(next++);
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

double peak_rss_mb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void Verdict::op(bool ok, const std::string& reason) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (reasons.size() < 8) reasons.push_back(reason);
}

}  // namespace perfbench
