// Fixture: banned-number-parse violations. Expected:
//   line 8: atoi call
//   line 10: strtod call (unchecked)
//   line 12: std::stoi call (throws std::invalid_argument, stops at "2x")
#include <cstdlib>
#include <string>
int
flag_to_int(const char* s) { return atoi(s); }
double
flag_to_double(const char* s) { return std::strtod(s, nullptr); }
int
item_to_int(const std::string& s) { return std::stoi(s); }
