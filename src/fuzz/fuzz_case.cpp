#include "fuzz/fuzz_case.hpp"

#include <cstdio>

namespace tp::fuzz {

namespace {

constexpr std::string_view kTokenPrefix = "tpf1";

const struct {
  Target target;
  const char* name;
} kTargets[] = {
    {Target::kSoa, "soa"},               {Target::kReplay, "replay"},
    {Target::kTaint, "taint"},           {Target::kThreads, "threads"},
    {Target::kTrajectory, "trajectory"},
};

void AppendHex(std::string& out, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(v));
  out += buf;
}

void AppendHexList(std::string& out, const std::vector<std::uint64_t>& list) {
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i != 0) {
      out += '.';
    }
    AppendHex(out, list[i]);
  }
}

bool ParseHex(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 16) {
    return false;
  }
  std::uint64_t v = 0;
  for (char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

bool ParseHexList(std::string_view text, std::vector<std::uint64_t>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  while (true) {
    std::size_t dot = text.find('.');
    std::string_view item = dot == std::string_view::npos ? text : text.substr(0, dot);
    std::uint64_t v = 0;
    if (!ParseHex(item, &v)) {
      return false;
    }
    out->push_back(v);
    if (dot == std::string_view::npos) {
      return true;
    }
    text.remove_prefix(dot + 1);
  }
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

}  // namespace

const char* TargetName(Target target) {
  for (const auto& entry : kTargets) {
    if (entry.target == target) {
      return entry.name;
    }
  }
  return "unknown";
}

bool TargetFromName(std::string_view name, Target* out) {
  for (const auto& entry : kTargets) {
    if (name == entry.name) {
      *out = entry.target;
      return true;
    }
  }
  return false;
}

std::vector<Target> AllTargets() {
  std::vector<Target> targets;
  for (const auto& entry : kTargets) {
    targets.push_back(entry.target);
  }
  return targets;
}

std::string FormatCase(const FuzzCase& c) {
  std::string out(kTokenPrefix);
  out += ':';
  out += TargetName(c.target);
  out += ':';
  AppendHex(out, c.seed);
  out += ':';
  AppendHexList(out, c.params);
  out += ':';
  AppendHexList(out, c.ops);
  out += ':';
  for (unsigned char b : c.payload) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

bool ParseCase(std::string_view token, FuzzCase* out, std::string* error) {
  auto fail = [error](const char* why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  // Split into exactly six ':'-separated fields.
  std::string_view fields[6];
  std::size_t field = 0;
  while (field < 5) {
    std::size_t colon = token.find(':');
    if (colon == std::string_view::npos) {
      return fail("expected 6 ':'-separated fields");
    }
    fields[field++] = token.substr(0, colon);
    token.remove_prefix(colon + 1);
  }
  if (token.find(':') != std::string_view::npos) {
    return fail("expected 6 ':'-separated fields");
  }
  fields[5] = token;

  if (fields[0] != kTokenPrefix) {
    return fail("not a tpf1 token");
  }
  FuzzCase c;
  if (!TargetFromName(fields[1], &c.target)) {
    return fail("unknown target name");
  }
  if (!ParseHex(fields[2], &c.seed)) {
    return fail("bad seed field");
  }
  if (!ParseHexList(fields[3], &c.params)) {
    return fail("bad params field");
  }
  if (!ParseHexList(fields[4], &c.ops)) {
    return fail("bad ops field");
  }
  std::string_view payload = fields[5];
  if (payload.size() % 2 != 0) {
    return fail("odd-length payload field");
  }
  c.payload.clear();
  for (std::size_t i = 0; i < payload.size(); i += 2) {
    int hi = HexNibble(payload[i]);
    int lo = HexNibble(payload[i + 1]);
    if (hi < 0 || lo < 0) {
      return fail("bad payload hex byte");
    }
    c.payload += static_cast<char>((hi << 4) | lo);
  }
  *out = std::move(c);
  return true;
}

}  // namespace tp::fuzz
