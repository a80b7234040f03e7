#include <stdio.h>

/* In #if, -1 is an intmax_t and 0u a uintmax_t (C11 §6.10.1:4), so the
   comparison is unsigned and false. */
int main(void) {
#if -1 < 0u
	puts("true");
#else
	puts("false");
#endif
	return 0;
}
