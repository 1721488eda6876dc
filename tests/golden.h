#ifndef CAROUSEL_TESTS_GOLDEN_H_
#define CAROUSEL_TESTS_GOLDEN_H_

// Byte-exact golden corpora (tests/corpus/*_golden.txt): one `<key> <hex>`
// pair per line, '#' comments. A round trip through one codec accepts any
// change both directions agree on (a field-order swap, say); comparing
// against bytes pinned once catches it.

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace carousel::test {

inline std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

inline std::vector<uint8_t> Unhex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Loads `name` from the corpus directory as key -> hex. An empty value
/// (a key alone on its line) stands for zero bytes.
inline std::map<std::string, std::string> LoadGolden(const std::string& name) {
  std::map<std::string, std::string> golden;
  std::ifstream in(std::string(CAROUSEL_CORPUS_DIR) + "/" + name);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, hex;
    fields >> key >> hex;
    golden[key] = hex;
  }
  return golden;
}

}  // namespace carousel::test

#endif  // CAROUSEL_TESTS_GOLDEN_H_
