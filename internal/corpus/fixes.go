package corpus

// fixes maps case names to repaired sources. The paper reports that the
// authors "provided bug fixes ... many of which were accepted by the
// project maintainers"; these are this corpus's equivalents, and the test
// suite verifies each runs clean under the managed engine.
var fixes = map[string]string{
	"argv-direct-index": `#include <stdio.h>
int main(int argc, char **argv) {
    if (argc > 5) {
        printf("%d %s\n", argc, argv[5]);
    } else {
        printf("%d (no argv[5])\n", argc);
    }
    return 0;
}`,
	"stack-strtok-delim": `#include <string.h>
#include <stdio.h>
char buf[32] = "alpha\nbeta";
int main(void) {
    const char t[2] = "\n"; /* room for the terminator */
    char *tok = strtok(buf, t);
    while (tok != NULL) {
        puts(tok);
        tok = strtok(NULL, t);
    }
    return 0;
}`,
	"heap-printf-ld-int": `#include <stdio.h>
int counter = 7;
int main(void) {
    printf("counter: %d\n", counter); /* width matches the argument */
    return 0;
}`,
	"global-const-folded": `#include <stdio.h>
const int count[7] = {0, 0, 0, 0, 0, 0, 0};
int main(int argc, char **args) {
    return count[6]; /* last valid element */
}`,
	"global-redzone-escape": `#include <stdio.h>
const char *strings[7] = {"zero","one","two","three","four","five","six"};
char scratch[8192];
int main(void) {
    int number = 0;
    scanf("%d", &number);
    if (number >= 0 && number < 7) {
        printf("%s\n", strings[number]);
    } else {
        printf("out of range\n");
    }
    return (int)scratch[0];
}`,
	"varargs-missing-argument": `#include <stdio.h>
int main(void) {
    printf("%d %d\n", 1, 2); /* both arguments supplied */
    return 0;
}`,
	"stack-off-by-one-sum": `#include <stdio.h>
int main(void) {
    int grades[5] = {90, 85, 77, 92, 60};
    int sum = 0;
    int i;
    for (i = 0; i < 5; i++) {
        sum += grades[i];
    }
    printf("avg=%d\n", sum / 5);
    return 0;
}`,
	"heap-missing-nul-space": `#include <stdlib.h>
#include <string.h>
#include <stdio.h>
int main(void) {
    const char *src = "hello world";
    char *dst = malloc(strlen(src) + 1);
    strcpy(dst, src);
    printf("%s\n", dst);
    free(dst);
    return 0;
}`,
	"uaf-config-reload": `#include <stdlib.h>
#include <string.h>
#include <stdio.h>
struct config { int verbose; char name[16]; };
int main(void) {
    struct config *cfg = malloc(sizeof(struct config));
    cfg->verbose = 1;
    strcpy(cfg->name, "default");
    printf("%d\n", cfg->verbose); /* read before free */
    free(cfg);
    return 0;
}`,
	"null-strchr-result": `#include <string.h>
#include <stdio.h>
int main(void) {
    const char *s = "no colon here";
    char *colon = strchr(s, ':');
    if (colon != NULL) {
        printf("%c\n", *colon);
    } else {
        printf("absent\n");
    }
    return 0;
}`,
}
