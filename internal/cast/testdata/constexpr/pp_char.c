#include <stdio.h>

/* Octal and hexadecimal escapes in #if character constants. */
int main(void) {
#if '\101' == 65 && '\x41' == 65 && 'A' == 65
	puts("A");
#else
	puts("not A");
#endif
	return 0;
}
