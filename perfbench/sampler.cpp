#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

namespace {

// Function symbols of the executable at their run-time addresses, sorted
// by start address; layer -1 marks a frame the walk passes over.
struct SymbolTable {
  std::vector<uintptr_t> lo;
  std::vector<uintptr_t> hi;
  std::vector<int8_t> layer;
};

// State the signal handler reads: written before the timer is armed and
// after it is disarmed, never while it runs.
SymbolTable g_symbols;
std::array<std::atomic<uint64_t>, kNumLayers> g_counts;
std::atomic<uint64_t> g_samples{0};
constexpr int kMaxDepth = 64;

int8_t lookup(uintptr_t pc) {
  const auto& lo = g_symbols.lo;
  auto it = std::upper_bound(lo.begin(), lo.end(), pc);
  if (it == lo.begin()) return -1;
  const size_t i = size_t(it - lo.begin()) - 1;
  return pc < g_symbols.hi[i] ? g_symbols.layer[i] : -1;
}

void on_sigprof(int) {
  const int saved_errno = errno;
  void* frames[kMaxDepth];
  const int n = backtrace(frames, kMaxDepth);
  Layer hit = Layer::Other;
  // frames[0] is this handler and frames[1] the kernel's signal trampoline;
  // frames[2] is the interrupted instruction itself. Deeper entries are
  // return addresses, which step back one byte into their call.
  for (int i = 0; i < n; ++i) {
    uintptr_t pc = reinterpret_cast<uintptr_t>(frames[i]);
    if (i > 2) --pc;
    const int8_t l = lookup(pc);
    if (l >= 0) {
      hit = Layer(l);
      break;
    }
  }
  g_counts[size_t(hit)].fetch_add(1, std::memory_order_relaxed);
  g_samples.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

int main_object_bias(dl_phdr_info* info, size_t, void* out) {
  *static_cast<uintptr_t*>(out) = info->dlpi_addr;
  return 1;  // the first object reported is the executable
}

// Layer of one demangled function name; nullopt for a frame the walk
// should pass over (not a dmv:: function, or a shared helper).
std::optional<Layer> classify(std::string_view d) {
  // The function's own name starts at the first "dmv::" outside any
  // template argument list or parameter list; whatever precedes it is a
  // return type. A name that reaches its parameter list first is not a
  // dmv:: function (e.g. std::function glue instantiated on a dmv lambda).
  size_t start = std::string_view::npos;
  int depth = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (depth == 0 && (i == 0 || d[i - 1] == ' ') &&
        d.compare(i, 5, "dmv::") == 0) {
      start = i + 5;
      break;
    }
    const char c = d[i];
    if (depth == 0 && c == '(') break;
    if (c == '<' || c == '(') ++depth;
    if ((c == '>' || c == ')') && depth > 0) --depth;
  }
  if (start == std::string_view::npos) return std::nullopt;
  const std::string_view name = d.substr(start);
  const std::string_view module = name.substr(0, name.find("::"));
  if (module == "workload" || module == "tpcw") return Layer::Workload;
  if (module == "core") return Layer::Core;
  if (module == "net") return Layer::Net;
  if (module == "txn")
    return name.compare(0, 18, "txn::LockManager::") == 0 ? Layer::Lock
                                                          : Layer::Txn;
  if (module == "mem") return Layer::Mem;
  if (module == "storage") return Layer::Storage;
  if (module == "disk") return Layer::Disk;
  if (module == "sim") return Layer::Sim;
  if (module == "obs") return Layer::Obs;
  // Shared helpers take the layer of their caller.
  if (module == "util" || module == "api") return std::nullopt;
  return Layer::Other;
}

bool read_at(int fd, void* buf, size_t len, off_t off) {
  auto* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t got = pread(fd, p, len, off);
    if (got <= 0) return false;
    p += got;
    off += got;
    len -= size_t(got);
  }
  return true;
}

// Reads the executable's .symtab and classifies every function in it.
SymbolTable load_symbols() {
  SymbolTable out;
  const int fd = open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return out;
  Elf64_Ehdr eh;
  std::vector<Elf64_Shdr> sh;
  std::vector<Elf64_Sym> syms;
  std::string names;
  bool ok = read_at(fd, &eh, sizeof eh, 0) &&
            std::memcmp(eh.e_ident, ELFMAG, SELFMAG) == 0 &&
            eh.e_ident[EI_CLASS] == ELFCLASS64 &&
            eh.e_shentsize == sizeof(Elf64_Shdr) && eh.e_shnum > 0;
  if (ok) {
    sh.resize(eh.e_shnum);
    ok = read_at(fd, sh.data(), sh.size() * sizeof(Elf64_Shdr),
                 off_t(eh.e_shoff));
  }
  if (ok) {
    auto symtab = std::find_if(sh.begin(), sh.end(), [](const Elf64_Shdr& s) {
      return s.sh_type == SHT_SYMTAB;
    });
    ok = symtab != sh.end() && symtab->sh_link < sh.size();
    if (ok) {
      const Elf64_Shdr& strtab = sh[symtab->sh_link];
      syms.resize(symtab->sh_size / sizeof(Elf64_Sym));
      names.resize(strtab.sh_size);
      ok = read_at(fd, syms.data(), syms.size() * sizeof(Elf64_Sym),
                   off_t(symtab->sh_offset)) &&
           read_at(fd, names.data(), names.size(), off_t(strtab.sh_offset));
    }
  }
  close(fd);
  if (!ok) return out;

  uintptr_t bias = 0;
  dl_iterate_phdr(main_object_bias, &bias);

  struct Entry {
    uintptr_t lo, hi;
    int8_t layer;
  };
  std::vector<Entry> entries;
  for (const Elf64_Sym& s : syms) {
    if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_size == 0 ||
        s.st_shndx == SHN_UNDEF || s.st_name >= names.size())
      continue;
    const char* mangled = names.c_str() + s.st_name;
    int8_t layer = -1;
    // "3dmv" is how the dmv namespace appears in a mangled name; skip
    // demangling everything else.
    if (std::strstr(mangled, "3dmv") != nullptr) {
      int status = 0;
      char* d = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
      if (status == 0 && d != nullptr) {
        if (auto l = classify(d)) layer = int8_t(*l);
      }
      std::free(d);
    }
    entries.push_back({bias + s.st_value, bias + s.st_value + s.st_size,
                       layer});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.lo < b.lo; });
  for (const Entry& e : entries) {
    out.lo.push_back(e.lo);
    out.hi.push_back(e.hi);
    out.layer.push_back(e.layer);
  }
  return out;
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Workload: return "workload";
    case Layer::Core: return "core";
    case Layer::Net: return "net";
    case Layer::Txn: return "txn";
    case Layer::Lock: return "lock";
    case Layer::Mem: return "mem";
    case Layer::Storage: return "storage";
    case Layer::Disk: return "disk";
    case Layer::Sim: return "sim";
    case Layer::Obs: return "obs";
    case Layer::Other: return "other";
  }
  return "other";
}

Sampler::Sampler() { g_symbols = load_symbols(); }

Sampler::~Sampler() { stop(); }

void Sampler::start(int interval_us) {
  if (armed_) throw std::logic_error("sampler already armed");
  for (auto& c : g_counts) c.store(0);
  g_samples.store(0);
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval tv;
  tv.it_interval.tv_sec = interval_us / 1'000'000;
  tv.it_interval.tv_usec = interval_us % 1'000'000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
  armed_ = true;
}

void Sampler::stop() {
  if (!armed_) return;
  itimerval off;
  std::memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  armed_ = false;
}

Sampler::Counts Sampler::counts() const {
  Counts out{};
  for (size_t i = 0; i < kNumLayers; ++i) out[i] = g_counts[i].load();
  return out;
}

uint64_t Sampler::samples() const { return g_samples.load(); }

size_t Sampler::symbol_count() const { return g_symbols.lo.size(); }

}  // namespace perfbench
