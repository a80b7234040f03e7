#include <stdio.h>

/* sizeof of a non-VLA operand is an integer constant (C11 §6.6:6), so
   a is an ordinary array, which file scope allows. A wide string
   literal is an array of wchar_t. */
int b[4];
int a[sizeof b / sizeof b[0]];
char w[sizeof L"ab"];

int main(void) {
	printf("%zu %zu\n", sizeof a / sizeof a[0], sizeof w);
	return 0;
}
