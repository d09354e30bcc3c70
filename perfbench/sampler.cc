#include "sampler.h"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>

namespace perfbench {

namespace {

constexpr int kMaxDepth = 48;
/// A minute of CPU at the 1 kHz rate the benchmark asks for.
constexpr size_t kMaxSamples = 60000;

struct Sample {
  int phase;
  int depth;
  void* pcs[kMaxDepth];
};

// Written by the signal handler: a preallocated buffer, a slot counter,
// and the phase tag SpanLog keeps current.
Sample* g_samples = nullptr;
std::atomic<size_t> g_count{0};
std::atomic<size_t> g_dropped{0};
volatile sig_atomic_t g_enabled = 0;
volatile sig_atomic_t g_phase = -1;

void OnProf(int) {
  if (!g_enabled) return;
  const int saved_errno = errno;
  const size_t i = g_count.load(std::memory_order_relaxed);
  if (i < kMaxSamples) {
    Sample& s = g_samples[i];
    s.phase = g_phase;
    s.depth = backtrace(s.pcs, kMaxDepth);
    g_count.store(i + 1, std::memory_order_relaxed);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

/// Walks back from `end` over one qualified C++ name (identifiers, "::"
/// and balanced (), <>, [], {} groups) and returns where it starts.
size_t QualifiedNameStart(std::string_view s, size_t end) {
  size_t i = end;
  int depth = 0;
  while (i > 0) {
    const char c = s[i - 1];
    if (c == ')' || c == '>' || c == ']' || c == '}') {
      ++depth;
    } else if (c == '(' || c == '<' || c == '[' || c == '{') {
      if (depth == 0) break;
      --depth;
    } else if (depth == 0 && (c == ' ' || c == ',')) {
      break;
    }
    --i;
  }
  return i;
}

/// The module of a qualified name starting with "dlog::", or -1.
int ModuleOfQualified(std::string_view q) {
  constexpr std::string_view kPrefix = "dlog::";
  if (q.substr(0, kPrefix.size()) != kPrefix) return -1;
  q.remove_prefix(kPrefix.size());
  const std::string_view ns = q.substr(0, q.find("::"));
  const auto& names = ModuleNames();
  for (size_t m = 0; m + 1 < names.size(); ++m) {
    if (ns == names[m]) return static_cast<int>(m);
  }
  // src/common declares its types and functions directly in dlog::
  // (plus dlog::crc32c and dlog::internal). Other namespaces (chaos,
  // analysis, baseline) are not benchmark layers: fall through to the
  // caller's frame.
  if (ns == "chaos" || ns == "analysis" || ns == "baseline") return -1;
  for (size_t m = 0; m + 1 < names.size(); ++m) {
    if (names[m] == "common") return static_cast<int>(m);
  }
  return -1;
}

/// The dlog module a demangled function name belongs to, or -1. A lambda
/// belongs to the function that defines it, also when it appears as the
/// template argument of a std::function or sim::Callback thunk its body
/// was inlined into.
int ModuleOf(std::string_view name) {
  const size_t lambda = name.find("{lambda");
  if (lambda != std::string_view::npos && lambda >= 2) {
    const size_t start = QualifiedNameStart(name, lambda - 2);
    const int m = ModuleOfQualified(name.substr(start));
    if (m >= 0) return m;
  }
  // Drop clone suffixes and trailing cv/ref qualifiers, then find the
  // parameter list: the function's own name ends where it opens.
  std::string_view s = name.substr(0, name.find(" [clone"));
  for (bool trimmed = true; trimmed;) {
    trimmed = false;
    for (std::string_view q : {" const", " volatile", " &&", " &"}) {
      if (s.size() > q.size() && s.substr(s.size() - q.size()) == q) {
        s.remove_suffix(q.size());
        trimmed = true;
      }
    }
  }
  size_t end = s.size();
  if (!s.empty() && s.back() == ')') {
    int depth = 0;
    for (size_t i = s.size(); i > 0; --i) {
      if (s[i - 1] == ')') ++depth;
      if (s[i - 1] == '(' && --depth == 0) {
        end = i - 1;
        break;
      }
    }
  }
  return ModuleOfQualified(s.substr(QualifiedNameStart(s, end)));
}

/// Function symbols of the main executable (its .symtab, so static and
/// anonymous-namespace functions resolve too), sorted by address.
class Symbolizer {
 public:
  Symbolizer() { Load(); }

  /// Index of the symbol containing `pc`, or -1.
  int Find(uintptr_t pc) const {
    auto it = std::upper_bound(
        syms_.begin(), syms_.end(), pc,
        [](uintptr_t v, const Sym& s) { return v < s.lo; });
    if (it == syms_.begin()) return -1;
    --it;
    if (pc >= it->hi) return -1;
    return static_cast<int>(it - syms_.begin());
  }

  /// Module of symbol `i` (cached; -1 for non-dlog code).
  int Module(int i) {
    Sym& s = syms_[static_cast<size_t>(i)];
    if (s.module == kUnknown) s.module = ModuleOf(Demangled(i));
    return s.module;
  }

  std::string Demangled(int i) const {
    const std::string& raw = syms_[static_cast<size_t>(i)].name;
    int status = 0;
    std::unique_ptr<char, void (*)(void*)> d(
        abi::__cxa_demangle(raw.c_str(), nullptr, nullptr, &status),
        std::free);
    return status == 0 && d != nullptr ? std::string(d.get()) : raw;
  }

 private:
  static constexpr int kUnknown = -2;
  struct Sym {
    uintptr_t lo = 0, hi = 0;
    std::string name;
    int module = kUnknown;
  };

  void Load() {
    std::ifstream f("/proc/self/exe", std::ios::binary);
    Elf64_Ehdr eh{};
    if (!f.read(reinterpret_cast<char*>(&eh), sizeof eh)) return;
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64 ||
        eh.e_shentsize != sizeof(Elf64_Shdr)) {
      return;
    }
    std::vector<Elf64_Shdr> sh(eh.e_shnum);
    f.seekg(static_cast<std::streamoff>(eh.e_shoff));
    const auto sh_bytes =
        static_cast<std::streamsize>(sh.size() * sizeof(Elf64_Shdr));
    if (!f.read(reinterpret_cast<char*>(sh.data()), sh_bytes)) {
      return;
    }
    auto read_section = [&f](const Elf64_Shdr& s) {
      std::vector<char> data(s.sh_size);
      f.seekg(static_cast<std::streamoff>(s.sh_offset));
      f.read(data.data(), static_cast<std::streamsize>(data.size()));
      if (!f) data.clear();
      return data;
    };
    // A position-independent executable is loaded at a bias; the main
    // program is the first object dl_iterate_phdr reports.
    uintptr_t bias = 0;
    dl_iterate_phdr(
        [](dl_phdr_info* info, size_t, void* out) {
          *static_cast<uintptr_t*>(out) = info->dlpi_addr;
          return 1;
        },
        &bias);
    for (const Elf64_Shdr& s : sh) {
      if (s.sh_type != SHT_SYMTAB || s.sh_link >= sh.size()) continue;
      const std::vector<char> symtab = read_section(s);
      const std::vector<char> strtab = read_section(sh[s.sh_link]);
      const size_t n = symtab.size() / sizeof(Elf64_Sym);
      for (size_t i = 0; i < n; ++i) {
        Elf64_Sym sym;
        std::memcpy(&sym, symtab.data() + i * sizeof(Elf64_Sym), sizeof sym);
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
            sym.st_shndx == SHN_UNDEF || sym.st_name >= strtab.size()) {
          continue;
        }
        const char* name = strtab.data() + sym.st_name;
        syms_.push_back({sym.st_value + bias,
                         sym.st_value + bias + sym.st_size,
                         std::string(name, strnlen(name, strtab.size() -
                                                             sym.st_name)),
                         kUnknown});
      }
    }
    std::sort(syms_.begin(), syms_.end(),
              [](const Sym& a, const Sym& b) { return a.lo < b.lo; });
  }

  std::vector<Sym> syms_;
};

}  // namespace

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<std::string>& ModuleNames() {
  static const std::vector<std::string> names = {
      "sim",   "net",  "wire",   "client", "server", "storage", "flow",
      "tp",    "forest", "epoch", "obs",   "harness", "common",  "other"};
  return names;
}

int SpanLog::Begin(const std::string& name, double sim_now) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cpu_start = ProcessCpuSeconds();
  s.wall_start = WallSeconds();
  s.sim_start = sim_now;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  g_phase = id;
  return id;
}

void SpanLog::End(int id, double sim_now) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.cpu_end = ProcessCpuSeconds();
  s.wall_end = WallSeconds();
  s.sim_end = sim_now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  g_phase = open_.empty() ? -1 : open_.back();
}

int SpanLog::BeginAsync(const std::string& name, double sim_now) {
  Span s;
  s.name = name;
  s.async = true;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cpu_start = ProcessCpuSeconds();
  s.wall_start = WallSeconds();
  s.sim_start = sim_now;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::EndAsync(int id, double sim_now) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.cpu_end = ProcessCpuSeconds();
  s.wall_end = WallSeconds();
  s.sim_end = sim_now;
}

bool SpanLog::Within(int id, int ancestor) const {
  while (id >= 0) {
    if (id == ancestor) return true;
    id = spans_[static_cast<size_t>(id)].parent;
  }
  return false;
}

Sampler::Sampler(const SpanLog* spans) : spans_(spans) {
  g_samples = new Sample[kMaxSamples];
}

Sampler::~Sampler() {
  Stop();
  delete[] g_samples;
  g_samples = nullptr;
}

void Sampler::Start(int interval_us) {
  // backtrace() loads the unwinder lazily; do that here, not in the
  // signal handler.
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction sa{};
  sa.sa_handler = OnProf;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  g_enabled = 1;
  itimerval tv{};
  tv.it_interval.tv_sec = interval_us / 1000000;
  tv.it_interval.tv_usec = interval_us % 1000000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
  running_ = true;
}

void Sampler::Stop() {
  if (!running_) return;
  itimerval tv{};
  setitimer(ITIMER_PROF, &tv, nullptr);
  g_enabled = 0;
  running_ = false;
}

uint64_t Sampler::samples() const {
  return g_count.load(std::memory_order_relaxed);
}

uint64_t Sampler::dropped() const {
  return g_dropped.load(std::memory_order_relaxed);
}

ModuleProfile Sampler::Profile(int phase, size_t top_n) const {
  static Symbolizer symbolizer;
  const size_t n_modules = ModuleNames().size();
  const int other = static_cast<int>(n_modules) - 1;
  ModuleProfile p;
  p.self.assign(n_modules, 0);
  p.inclusive.assign(n_modules, 0);
  std::map<int, uint64_t> by_symbol;
  const size_t n = std::min(samples(), static_cast<uint64_t>(kMaxSamples));
  std::vector<bool> seen(n_modules);
  for (size_t i = 0; i < n; ++i) {
    const Sample& s = g_samples[i];
    if (phase >= 0 && !spans_->Within(s.phase, phase)) continue;
    ++p.samples;
    int self = other;
    std::fill(seen.begin(), seen.end(), false);
    for (int f = 0; f < s.depth; ++f) {
      // Return addresses point past the call; step back into it.
      const uintptr_t pc = reinterpret_cast<uintptr_t>(s.pcs[f]) - 1;
      const int sym = symbolizer.Find(pc);
      if (sym < 0) continue;
      const int m = symbolizer.Module(sym);
      if (m < 0) continue;
      if (self == other) {
        self = m;
        ++by_symbol[sym];
      }
      seen[static_cast<size_t>(m)] = true;
    }
    seen[static_cast<size_t>(other)] = self == other;
    ++p.self[static_cast<size_t>(self)];
    for (size_t m = 0; m < n_modules; ++m) {
      if (seen[m]) ++p.inclusive[m];
    }
  }
  std::vector<std::pair<int, uint64_t>> top(by_symbol.begin(),
                                            by_symbol.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (top.size() > top_n) top.resize(top_n);
  for (const auto& [sym, count] : top) {
    p.top_symbols.emplace_back(symbolizer.Demangled(sym), count);
  }
  return p;
}

}  // namespace perfbench
