#include "common/bytes.h"

#include <cstdio>
#include <cstdlib>

namespace dlog::internal {

void EncoderOverrun(size_t wanted, size_t left) {
  std::fprintf(stderr,
               "Encoder: a %zu-byte write past its declared size (%zu bytes "
               "left)\n",
               wanted, left);
  std::abort();
}

}  // namespace dlog::internal
