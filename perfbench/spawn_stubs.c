/* Start a daemon process for the benchmark.

   OCaml 5 refuses Unix.fork once a domain has been created, and the
   benchmark has planned on several domains before it starts its second
   daemon, so the fork and exec happen here.  The child also asks the
   kernel to SIGKILL it when the benchmark dies, so a daemon cannot
   outlive a benchmark that was killed outright.  Between fork and exec
   the child calls only async-signal-safe functions. */

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#ifdef __linux__
#include <signal.h>
#include <sys/prctl.h>
#endif

/* perfbench_spawn(path, argv, log_fd): run [path] with [argv], stdin
   from /dev/null and stdout and stderr on [log_fd]; returns the pid. */
value perfbench_spawn(value path, value argv, value log_fd)
{
  CAMLparam3(path, argv, log_fd);
  mlsize_t n = Wosize_val(argv);
  char *cpath = strdup(String_val(path));
  char **args = calloc(n + 1, sizeof(char *));
  int ok = cpath != NULL && args != NULL;
  for (mlsize_t i = 0; ok && i < n; i++) {
    args[i] = strdup(String_val(Field(argv, i)));
    ok = args[i] != NULL;
  }
  int fd = Int_val(log_fd);
  pid_t parent = getpid();
  pid_t pid = ok ? fork() : -1;
  if (pid == 0) {
#ifdef __linux__
    prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    if (getppid() != parent) _exit(1);
    int null = open("/dev/null", O_RDONLY);
    if (null >= 0) dup2(null, 0);
    dup2(fd, 1);
    dup2(fd, 2);
    execv(cpath, args);
    _exit(127);
  }
  int err = errno;
  free(cpath);
  if (args != NULL) {
    for (mlsize_t i = 0; i < n; i++) free(args[i]);
    free(args);
  }
  if (!ok) caml_failwith("perfbench_spawn: out of memory");
  if (pid < 0) caml_failwith(strerror(err));
  CAMLreturn(Val_int(pid));
}
