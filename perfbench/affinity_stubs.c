/* CPU affinity for the benchmark's threads (Linux; elsewhere a no-op). */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sched.h>
#endif

/* The CPUs the calling thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit) {
  CAMLparam1(unit);
  CAMLlocal1(r);
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    int n = CPU_COUNT(&set), i = 0;
    r = caml_alloc_tuple(n);
    for (int c = 0; c < CPU_SETSIZE && i < n; c++)
      if (CPU_ISSET(c, &set)) Store_field(r, i++, Val_int(c));
    CAMLreturn(r);
  }
#endif
  CAMLreturn(Atom(0));
}

/* Pin the calling thread to one CPU; false if that is not possible. */
value perfbench_pin_thread(value cpu) {
#ifdef __linux__
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(Int_val(cpu), &one);
  return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
#else
  (void)cpu;
  return Val_false;
#endif
}
