#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ThreadCpu() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  return 0.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<uint32_t> ReadU32File(const std::string& path) {
  std::vector<uint32_t> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  uint32_t buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, sizeof(uint32_t), 4096, f)) > 0) {
    out.insert(out.end(), buf, buf + got);
  }
  std::fclose(f);
  return out;
}

bool WriteU32File(const std::string& path, const std::vector<uint32_t>& v) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(v.data(), sizeof(uint32_t), v.size(), f) == v.size();
  return std::fclose(f) == 0 && ok;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string CountsJson(const std::map<std::string, uint64_t>& counts) {
  std::ostringstream os;
  os << "{";
  const char* sep = "";
  for (const auto& [name, value] : counts) {
    os << sep << '"' << name << "\": " << value;
    sep = ", ";
  }
  os << "}";
  return os.str();
}

void Report::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    os << sep << '"' << name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  os << "}, \"counts\": " << CountsJson(counts) << ", \"self_seconds\": {";
  sep = "";
  for (const auto& [name, s] : self_seconds) {
    os << sep << '"' << name << "\": " << s;
    sep = ", ";
  }
  os << "}, \"errors\": [";
  sep = "";
  for (const std::string& e : errors) {
    os << sep << '"' << JsonEscape(e) << '"';
    sep = ", ";
  }
  os << "]}";
  return os.str();
}

}  // namespace perfbench
