// Fixture: banned-new-delete violations. Expected:
//   line 7: naked new
//   line 8: naked delete
// The header name on line 6 and the deleted copy constructor on
// line 11 are NOT violations.
#include <new>
int* make() { return new int(7); }
void unmake(int* p) { delete p; }
struct NoCopy {
    NoCopy() = default;
    NoCopy(const NoCopy&) = delete;
};
