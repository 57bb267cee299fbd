/* Host-side clocks for the benchmark: process CPU time in nanoseconds
   and the peak resident set, both without allocating on the OCaml
   heap so the timing wrapper does not perturb the words it counts. */

#include <sys/resource.h>
#include <time.h>

#include <caml/mlvalues.h>

value perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

value perfbench_peak_rss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  getrusage(RUSAGE_SELF, &ru);
  return Val_long(ru.ru_maxrss);
}
