/**
 * @file
 * Internal interface between livermore.cc and the per-loop builders.
 * Loops 1, 5, 11 and 12 have no builder here: their canonical kernel
 * is buildUnrolledKernel(id, 1) (unrolled.cc).
 *
 * Not installed as public API; include livermore.hh instead.
 */

#ifndef MFUSIM_CODEGEN_KERNELS_KERNELS_HH
#define MFUSIM_CODEGEN_KERNELS_KERNELS_HH

#include "mfusim/codegen/livermore.hh"

namespace mfusim
{
namespace kernels
{

Kernel buildLoop02();
Kernel buildLoop03();
Kernel buildLoop04();
Kernel buildLoop06();
Kernel buildLoop07();
Kernel buildLoop08();
Kernel buildLoop09();
Kernel buildLoop10();
Kernel buildLoop13();
Kernel buildLoop14();

} // namespace kernels
} // namespace mfusim

#endif // MFUSIM_CODEGEN_KERNELS_KERNELS_HH
