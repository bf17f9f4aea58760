// LD_PRELOAD SIGPROF sampler: records the interrupted PC, and the id of
// the thread it interrupted, at 250 Hz of process CPU time, and dumps
// "pc - load_base tid" lines at exit under a "# pid N" header (the
// thread whose id is N is the process's first, driver, thread).
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#include <link.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static int tids[MAX_SAMPLES];
static volatile unsigned long n_samples;
static unsigned long base;

static void on_prof(int sig, siginfo_t *si, void *uc_) {
    ucontext_t *uc = (ucontext_t *)uc_;
    unsigned long i = __sync_fetch_and_add(&n_samples, 1);
    if (i < MAX_SAMPLES) {
        samples[i] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
        tids[i] = (int)syscall(SYS_gettid);  // async-signal-safe
    }
}

static int find_base(struct dl_phdr_info *info, size_t size, void *data) {
    if (base == 0 && info->dlpi_name && info->dlpi_name[0] == '\0') base = info->dlpi_addr;
    return 0;
}

static void dump(void) {
    struct itimerval off = {0};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *f = fopen(path ? path : "samples.txt", "w");
    if (!f) return;
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    fprintf(f, "# pid %d\n", (int)getpid());
    for (unsigned long i = 0; i < n; i++) fprintf(f, "0x%lx %d\n", samples[i] - base, tids[i]);
    fclose(f);
    // Absolute PCs plus the memory map, for samples outside the binary.
    char raw[4096];
    snprintf(raw, sizeof raw, "%s.raw", path ? path : "samples.txt");
    f = fopen(raw, "w");
    if (!f) return;
    for (unsigned long i = 0; i < n; i++) fprintf(f, "0x%lx\n", samples[i]);
    FILE *m = fopen("/proc/self/maps", "r");
    if (m) {
        char line[1024];
        while (fgets(line, sizeof line, m)) fprintf(f, "MAP %s", line);
        fclose(m);
    }
    fclose(f);
}

__attribute__((constructor)) static void init(void) {
    dl_iterate_phdr(find_base, NULL);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &it, NULL);
    atexit(dump);
}
