#include <stdio.h>
int main(void) {
	int s = 0;
	switch (1)
	case 1:
		s = 2;
	printf("%d\n", s);
	return 0;
}
