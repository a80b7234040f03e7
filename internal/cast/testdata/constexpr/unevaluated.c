#include <stdio.h>

/* An operand C does not evaluate may hold what would be undefined
   (C11 §6.6:3); the conditional still converts both arms to a common
   type (§6.5.15:5). */
enum { G = 0 && 1 / 0, H = 1 ? 2 : 1 / 0, I = (1 ? -1 : 0u) > 0 };

int main(void) {
#if 0 && (1 / 0)
	puts("wrong");
#endif
	printf("%d %d %d\n", G, H, I);
	return 0;
}
