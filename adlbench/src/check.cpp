#include "check.h"

#include <charconv>
#include <map>
#include <sstream>
#include <stdexcept>

#include "refinterp.h"

namespace adlbench {

namespace {

bool toU64(std::string_view s, uint64_t& v, int base = 10) {
  if (base == 16 && s.substr(0, 2) == "0x") s.remove_prefix(2);
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
  return ec == std::errc() && p == s.data() + s.size() && !s.empty();
}

// "key=value" tokens of one whitespace-split line.
std::map<std::string, std::string> fields(const std::string& line) {
  std::map<std::string, std::string> kv;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) kv[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return kv;
}

bool parseRow(const std::string& line, PathRow& row, std::string& err) {
  row.line = line;
  std::istringstream is(line);
  is >> row.status;
  std::map<uint64_t, uint8_t> byIndex;
  std::string tok;
  while (is >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    uint64_t n = 0;
    if (key == "steps") {
      if (!toU64(val, row.steps)) break;
    } else if (key == "exit") {
      if (!toU64(val, n)) break;
      row.exitCode = n;
    } else if (key == "defect") {
      row.defectKind = val;
    } else if (key == "out") {
      if (val.size() < 2 || val.front() != '[' || val.back() != ']') break;
      std::istringstream os(val.substr(1, val.size() - 2));
      std::string item;
      while (std::getline(os, item, ',')) {
        if (!toU64(item, n)) return err = "bad output in: " + line, false;
        row.outputs.push_back(n);
      }
    } else if (key.size() > 2 && key[0] == 'i' && key[1] == 'n' &&
               key[2] >= '0' && key[2] <= '9') {
      // Witness input "in<k>_w<width>=0x<hex>".
      const size_t us = key.find("_w");
      uint64_t idx = 0;
      if (us == std::string::npos || !toU64(key.substr(2, us - 2), idx) ||
          !toU64(val, n, 16) || n > 255) {
        return err = "bad witness in: " + line, false;
      }
      byIndex[idx] = static_cast<uint8_t>(n);
    }
  }
  if (!is.eof()) return err = "bad path row: " + line, false;
  uint64_t expect = 0;
  for (const auto& [idx, val] : byIndex) {
    if (idx != expect++) return err = "witness inputs not dense: " + line, false;
    row.inputs.push_back(val);
  }
  return true;
}

}  // namespace

std::optional<ExploreTable> parseExploreOutput(const std::string& text,
                                               std::string& err) {
  std::istringstream is(text);
  std::string line;
  ExploreTable t;
  bool haveSummary = false;
  bool haveSolver = false;
  while (std::getline(is, line)) {
    if (line.rfind("paths=", 0) == 0) {
      const auto kv = fields(line);
      if (!toU64(kv.count("paths") ? kv.at("paths") : "", t.paths) ||
          !toU64(kv.count("steps") ? kv.at("steps") : "", t.steps) ||
          !toU64(kv.count("forks") ? kv.at("forks") : "", t.forks)) {
        err = "bad summary line: " + line;
        return std::nullopt;
      }
      haveSummary = true;
    } else if (line.rfind("  ", 0) == 0 && haveSummary && !haveSolver) {
      PathRow row;
      if (!parseRow(line.substr(2), row, err)) return std::nullopt;
      t.rows.push_back(std::move(row));
    } else if (line.rfind("solver: ", 0) == 0) {
      const size_t sp = line.find(' ', 8);
      if (!toU64(line.substr(8, sp - 8), t.queries)) {
        err = "bad solver line: " + line;
        return std::nullopt;
      }
      haveSolver = true;
    }
  }
  if (!haveSummary || !haveSolver) {
    err = "explore output lacks the summary or solver line";
    return std::nullopt;
  }
  if (t.rows.size() != t.paths) {
    err = "path table has " + std::to_string(t.rows.size()) + " rows, summary says " +
          std::to_string(t.paths);
    return std::nullopt;
  }
  return t;
}

std::vector<std::string> checkExplore(const GenProgram& g, int exitCode,
                                      const ExploreTable& t) {
  std::vector<std::string> bad;
  const int wantCode = g.planted ? 1 : 0;
  if (exitCode != wantCode) {
    bad.push_back("exit code " + std::to_string(exitCode) + ", want " +
                  std::to_string(wantCode));
  }
  if (g.closedFormPaths && t.paths != *g.closedFormPaths) {
    bad.push_back("paths=" + std::to_string(t.paths) + ", closed form " +
                  std::to_string(*g.closedFormPaths));
  }
  bool sawPlanted = false;
  for (const PathRow& row : t.rows) {
    RefResult ref;
    try {
      ref = refRun(g.ir, row.inputs);
    } catch (const std::exception& e) {
      bad.push_back(std::string("reference interpreter: ") + e.what() + ": " + row.line);
      continue;
    }
    std::string why;
    if (row.status == "exited") {
      if (ref.end != RefResult::End::Halt || !row.exitCode ||
          *row.exitCode != ref.exitCode) {
        why = "reference does not halt with the printed exit code";
      }
    } else if (row.status == "defect") {
      if (ref.end != RefResult::End::Defect ||
          row.defectKind != adlsym::core::defectKindName(*ref.defect)) {
        why = "reference does not reach the printed defect";
      } else if (!g.planted ||
                 row.defectKind != adlsym::core::defectKindName(*g.planted)) {
        why = "defect kind differs from the planted one";
      } else {
        sawPlanted = true;
      }
    } else {
      why = "unexpected path status";
    }
    if (why.empty() && row.outputs != ref.outputs) {
      why = "outputs differ from the reference";
    }
    if (!why.empty()) bad.push_back(why + ": " + row.line);
  }
  if (g.planted && !sawPlanted) {
    bad.push_back(std::string("planted ") + adlsym::core::defectKindName(*g.planted) +
                  " not reported");
  }
  return bad;
}

}  // namespace adlbench
