/* Heap policy for a process that builds and drops simulation worlds one
   after another.

   glibc hands the free memory at the top of its heap back to the system
   once more than M_TRIM_THRESHOLD of it is free (128 KiB by default).  A
   world frees megabytes when it dies, so the next world's set-up faults
   the same pages straight back in.  Keeping up to 64 MiB of freed memory
   for reuse - the most glibc's own dynamic threshold grows to - avoids
   that.  Other C libraries keep their own policy. */

#include <caml/mlvalues.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

CAMLprim value tpc_keep_freed_memory(value unit)
{
#ifdef __GLIBC__
    mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);
#endif
    return Val_unit;
}
